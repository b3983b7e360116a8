package kgcd

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mccls/internal/threshold"
)

// NewHTTPServer wraps a handler with the server-side timeouts every kgcd
// listener uses: a slow-loris peer cannot hold a connection open forever.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      10 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
}

// ClusterConfig shapes an all-in-one deployment: one process running the n
// signer replicas (each on its own loopback listener — real HTTP traffic,
// not function calls) plus the combiner.
type ClusterConfig struct {
	// Shares are the n replicas' shares, one replica each, as
	// threshold.Split returned them under Combiner.Params.
	Shares []*threshold.Share
	// ListenAddr is the combiner's address (default "127.0.0.1:0").
	ListenAddr string
	// SignerMiddleware, when set, wraps each signer replica's handler —
	// the chaos harness puts Injector.Middleware here so a "killed"
	// replica aborts connections exactly as its fault schedule dictates.
	SignerMiddleware func(i int, h http.Handler) http.Handler
	// Combiner carries the parameters the shares were split under, the
	// quorum T and the cache/rate-limit/timeout tuning; SignerURLs are
	// filled in here.
	Combiner Config
}

// Cluster is a running all-in-one deployment.
type Cluster struct {
	// URL is the combiner's base URL.
	URL string
	// SignerURLs are the replica base URLs.
	SignerURLs []string

	t   int
	hc  *http.Client // the combiner's client to the replicas
	clk clock

	epoch        atomic.Uint32 // last refresh epoch all replicas confirmed
	mu           sync.Mutex    // serializes Refresh
	pending      []*threshold.Delta
	pendingEpoch uint32

	servers   []*http.Server // signers first, combiner last
	listeners []net.Listener
}

// StartCluster starts one signer replica per share and the combiner over
// them, and returns once all listeners are accepting.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	combCfg := cfg.Combiner.withDefaults()
	c := &Cluster{t: combCfg.T, hc: combCfg.HTTPClient, clk: combCfg.clk}
	fail := func(err error) (*Cluster, error) {
		c.Close()
		return nil, err
	}
	for i, sh := range cfg.Shares {
		signer, err := threshold.NewSigner(combCfg.Params, sh)
		if err != nil {
			return fail(err)
		}
		h := NewSignerHandler(signer, 0)
		if cfg.SignerMiddleware != nil {
			h = cfg.SignerMiddleware(i, h)
		}
		u, err := c.serve("127.0.0.1:0", h)
		if err != nil {
			return fail(err)
		}
		c.SignerURLs = append(c.SignerURLs, u)
	}

	combCfg.SignerURLs = c.SignerURLs
	srv, err := NewServer(combCfg)
	if err != nil {
		return fail(err)
	}
	addr := cfg.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	if c.URL, err = c.serve(addr, srv.Handler()); err != nil {
		return fail(err)
	}
	return c, nil
}

func (c *Cluster) serve(addr string, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := NewHTTPServer(h)
	c.servers = append(c.servers, srv)
	c.listeners = append(c.listeners, ln)
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// Epoch returns the last refresh epoch every replica confirmed. It never
// waits on a Refresh in progress.
func (c *Cluster) Epoch() uint32 { return c.epoch.Load() }

// Refresh executes one proactive share refresh across the replica set: it
// draws a zero-constant polynomial from crypto/rand, posts each replica its delta, and
// returns the new epoch once all n confirmed. The master secret is
// untouched — issuance before, during and after the refresh combines to
// byte-identical partial keys. Each post goes through the combiner's HTTP
// client under shareTimeout and is retried (the /refresh endpoint is
// idempotent), so a stalled replica costs a bounded wait; a replica that
// stays unreachable fails the refresh, and the epoch bookkeeping then keeps
// mixed share sets from combining. A failed round's deltas are pinned and
// re-posted by the next Refresh call — a retry must NOT draw a fresh
// polynomial, or replicas that already applied the first one would
// idempotently skip the second and end up on different polynomials under
// the same epoch number.
func (c *Cluster) Refresh(ctx context.Context) (uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	epoch := c.epoch.Load()
	toEpoch := epoch + 1
	if c.pending == nil || c.pendingEpoch != toEpoch {
		deltas, err := threshold.RefreshDeltas(c.t, len(c.SignerURLs), toEpoch, nil)
		if err != nil {
			return epoch, err
		}
		c.pending, c.pendingEpoch = deltas, toEpoch
	}
	for i, u := range c.SignerURLs {
		issuer := newHTTPIssuer(u, c.hc)
		var lastErr error
		applied := false
		for attempt := 0; attempt < 5 && !applied; attempt++ {
			if attempt > 0 {
				if err := sleep(ctx, c.clk, time.Duration(attempt)*200*time.Millisecond); err != nil {
					return epoch, err
				}
			}
			postCtx, cancel := withTimeout(ctx, c.clk, shareTimeout)
			ep, err := issuer.Refresh(postCtx, c.pending[i])
			cancel()
			if err != nil {
				lastErr = err
				continue
			}
			if ep != toEpoch {
				return epoch, fmt.Errorf("kgcd: replica %d refreshed to epoch %d, want %d", i, ep, toEpoch)
			}
			applied = true
		}
		if !applied {
			return epoch, fmt.Errorf("kgcd: refresh epoch %d: replica %d unreachable: %w", toEpoch, i, lastErr)
		}
	}
	c.epoch.Store(toEpoch)
	c.pending = nil
	return toEpoch, nil
}

// Shutdown drains the cluster gracefully within the context's deadline:
// the combiner first (so in-flight enrollments can still reach signer
// replicas), then the replicas. Close remains the abrupt path.
func (c *Cluster) Shutdown(ctx context.Context) error {
	var firstErr error
	// servers holds signers first, combiner last; drain in reverse.
	for i := len(c.servers) - 1; i >= 0; i-- {
		if err := c.servers[i].Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close shuts down every listener in the cluster.
func (c *Cluster) Close() {
	for _, s := range c.servers {
		_ = s.Close()
	}
}
