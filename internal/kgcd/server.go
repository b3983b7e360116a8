// Package kgcd is the KGC enrollment plane as a real network service: a
// front-end *combiner* exposing JSON-over-HTTP enrollment, backed by n
// signer *replicas* that each hold one Shamir share of the master secret
// (internal/threshold). An enrollment fans out to the replicas, collects
// any t key shares and Lagrange-combines them into the partial private
// key — so forging partial keys requires compromising t servers, while
// availability survives n−t failures.
//
// Combiner API (all JSON):
//
//	GET  /params  → {"ppub": hex}                       public parameters
//	POST /enroll  {"id": ...} → {"id", "partial_key", "cached"}
//	GET  /healthz → {"status", "t", "n", "signers_up", "replicas"}
//	GET  /metrics → Prometheus text exposition
//
// The hot path is defended in depth: per-identity token-bucket rate
// limiting (429), an LRU partial-key cache (re-enrollment is the common
// case for a rebooting fleet), bounded request bodies and identity
// lengths, and a per-request fan-out timeout. Against replica failure the
// combiner replaces every share request that fails or outlives its 1 s
// share timeout with one to the next untried replica, and groups gathered
// shares by refresh epoch (a refresh in flight must not poison a
// combination). Below quorum it keeps serving cache hits and answers
// misses with 503.
package kgcd

import (
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"mccls/internal/core"
	"mccls/internal/lru"
	"mccls/internal/threshold"
)

// Defaults of the values Config leaves settable; zero selects them.
const (
	DefaultCacheSize      = 1 << 16
	DefaultRequestTimeout = 2 * time.Second
	// DefaultRatePerSec / DefaultRateBurst: a legitimate node re-enrolls at
	// reboot cadence; 5/s sustained with a burst of 20 absorbs crash loops
	// and flaky links without letting one identity monopolize issuance.
	DefaultRatePerSec = 5
	DefaultRateBurst  = 20
)

// Fixed service parameters.
const (
	// MaxIDLen bounds accepted identity byte length, here and on the replicas.
	MaxIDLen = 256
	// shareTimeout bounds a single share or refresh RPC, so one hung replica
	// fails fast and its fan-out slot is re-spent elsewhere.
	shareTimeout = 1 * time.Second
	// probeTimeout bounds each per-replica /healthz probe.
	probeTimeout = 1 * time.Second
)

// Config parameterizes a combiner.
type Config struct {
	// Params are the public system parameters the shares were split under.
	Params *core.Params
	// T is the quorum: how many signer replicas must answer.
	T int
	// SignerURLs are the base URLs of the n replicas.
	SignerURLs []string
	// CacheSize bounds the partial-key LRU (entries).
	CacheSize int
	// RatePerSec / RateBurst parameterize per-identity token buckets;
	// RatePerSec < 0 disables rate limiting.
	RatePerSec float64
	RateBurst  int
	// RequestTimeout bounds one enrollment's signer fan-out.
	RequestTimeout time.Duration
	// HTTPClient overrides the client used to reach signer replicas.
	HTTPClient *http.Client

	clk clock // nil selects wallClock; set by this package's tests only
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = DefaultCacheSize
	}
	if c.RatePerSec == 0 {
		c.RatePerSec = DefaultRatePerSec
	}
	if c.RateBurst == 0 {
		c.RateBurst = DefaultRateBurst
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.clk == nil {
		c.clk = wallClock{}
	}
	return c
}

// replica is the combiner's stateful view of one signer: the transport,
// the latest health-probe latency and its share-failure count.
type replica struct {
	issuer        shareIssuer
	probeNanos    atomic.Int64 // last /healthz probe; -1 = failed, 0 = unprobed
	shareFailures counter
}

// Server is the combiner.
type Server struct {
	cfg      Config
	replicas []*replica
	cache    *lru.Cache[string] // identity → hex-marshalled partial key
	limiter  *rateLimiter
	metrics  metrics
	rr       atomic.Uint32 // round-robin cursor over signer replicas
}

// NewServer validates the configuration and builds a combiner.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Params == nil {
		return nil, fmt.Errorf("kgcd: config needs Params")
	}
	n := len(cfg.SignerURLs)
	if cfg.T < 1 || n < cfg.T || n > threshold.MaxShares {
		return nil, fmt.Errorf("kgcd: invalid quorum %d-of-%d", cfg.T, n)
	}
	s := &Server{
		cfg:     cfg,
		cache:   lru.New[string](cfg.CacheSize),
		limiter: newRateLimiter(cfg.RatePerSec, cfg.RateBurst, 2*cfg.CacheSize),
	}
	for _, u := range cfg.SignerURLs {
		s.replicas = append(s.replicas, &replica{issuer: newHTTPIssuer(u, cfg.HTTPClient)})
	}
	return s, nil
}

// enrollResponse answers the public POST /enroll (an idRequest). PartialKey
// is hex of PartialPrivateKey.Marshal.
type enrollResponse struct {
	ID         string `json:"id"`
	PartialKey string `json:"partial_key"`
	Cached     bool   `json:"cached"`
}

type paramsResponse struct {
	Ppub string `json:"ppub"`
}

type replicaHealth struct {
	Name string `json:"name"`
	Up   bool   `json:"up"`
	// ProbeMicros is the probe round-trip in microseconds (-1 on failure).
	ProbeMicros int64 `json:"probe_micros"`
}

type healthResponse struct {
	Status    string          `json:"status"`
	T         int             `json:"t"`
	N         int             `json:"n"`
	SignersUp int             `json:"signers_up"`
	Replicas  []replicaHealth `json:"replicas,omitempty"`
}

// Handler returns the combiner's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /params", s.handleParams)
	mux.HandleFunc("POST /enroll", s.handleEnroll)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func (s *Server) handleParams(w http.ResponseWriter, r *http.Request) {
	s.metrics.paramsTotal.Inc()
	writeJSON(w, http.StatusOK, paramsResponse{Ppub: hex.EncodeToString(s.cfg.Params.Marshal())})
}

func (s *Server) handleEnroll(w http.ResponseWriter, r *http.Request) {
	start := s.cfg.clk.Now()
	var req idRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.metrics.badRequests.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.ID) == 0 || len(req.ID) > MaxIDLen {
		s.metrics.badRequests.Inc()
		writeError(w, http.StatusBadRequest, fmt.Sprintf("identity length must be in [1, %d]", MaxIDLen))
		return
	}
	if !s.limiter.Allow(req.ID, start) {
		s.metrics.rateLimited.Inc()
		writeError(w, http.StatusTooManyRequests, "per-identity rate limit exceeded")
		return
	}
	s.metrics.enrollTotal.Inc()

	if hexKey, ok := s.cache.Get(req.ID); ok {
		s.metrics.cacheHits.Inc()
		writeJSON(w, http.StatusOK, enrollResponse{ID: req.ID, PartialKey: hexKey, Cached: true})
		s.metrics.enrollLatency.Observe(s.cfg.clk.Now().Sub(start))
		return
	}
	s.metrics.cacheMisses.Inc()

	ctx, cancel := withTimeout(r.Context(), s.cfg.clk, s.cfg.RequestTimeout)
	defer cancel()
	shares, err := s.gatherShares(ctx, req.ID)
	if err != nil {
		s.metrics.enrollErrors.Inc()
		writeError(w, http.StatusServiceUnavailable, fmt.Sprintf("quorum unavailable: %v", err))
		return
	}
	ppk, err := threshold.Combine(req.ID, shares)
	if err != nil {
		s.metrics.enrollErrors.Inc()
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("combine: %v", err))
		return
	}
	hexKey := hex.EncodeToString(ppk.Marshal())
	s.cache.Put(req.ID, hexKey)
	writeJSON(w, http.StatusOK, enrollResponse{ID: req.ID, PartialKey: hexKey, Cached: false})
	s.metrics.enrollLatency.Observe(s.cfg.clk.Now().Sub(start))
}

// gatherShares fans out to the signer replicas and returns the first T key
// shares that agree on a refresh epoch. It starts T requests in parallel
// (rotating the starting replica for load balance) and launches a
// replacement to the next untried replica for every one that fails or
// outlives shareTimeout, so a hung replica costs one share timeout, not the
// enrollment. Shares are grouped by epoch so that a proactive refresh
// landing mid-gather yields a clean same-epoch quorum instead of an
// ErrMixedEpochs combination.
func (s *Server) gatherShares(ctx context.Context, id string) ([]*threshold.KeyShare, error) {
	n := len(s.replicas)
	type result struct {
		ks  *threshold.KeyShare
		err error
	}
	results := make(chan result, n)
	first := int(s.rr.Add(1))
	tried := 0
	launch := func() bool {
		if tried < n {
			rep := s.replicas[(first+tried)%n]
			tried++
			s.metrics.shareRequests.Inc()
			go func() {
				shareCtx, cancel := withTimeout(ctx, s.cfg.clk, shareTimeout)
				defer cancel()
				ks, err := rep.issuer.Issue(shareCtx, id)
				if err != nil {
					if ctx.Err() != nil {
						// The gather as a whole ended; this tells us nothing
						// about the replica, so it is not a share failure.
						results <- result{nil, ctx.Err()}
						return
					}
					rep.shareFailures.Inc()
					s.metrics.shareFailures.Inc()
					results <- result{nil, fmt.Errorf("%s: %w", rep.issuer.Name(), err)}
					return
				}
				results <- result{ks, nil}
			}()
			return true
		}
		return false
	}
	for i := 0; i < s.cfg.T; i++ {
		launch()
	}

	byEpoch := make(map[uint32][]*threshold.KeyShare)
	best := 0 // size of the largest same-epoch group
	outstanding := s.cfg.T
	var lastErr error
	for {
		select {
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		case r := <-results:
			outstanding--
			if r.err != nil {
				lastErr = r.err
				if launch() {
					outstanding++
				}
			} else {
				g := append(byEpoch[r.ks.Epoch], r.ks)
				byEpoch[r.ks.Epoch] = g
				if len(g) >= s.cfg.T {
					return g, nil
				}
				if len(byEpoch) > 1 && len(g) == 1 {
					s.metrics.epochConflicts.Inc()
				}
				best = max(best, len(g))
				// Mixed epochs dilute the fan-out: keep enough requests in
				// flight to complete the largest same-epoch group.
				for best+outstanding < s.cfg.T && launch() {
					outstanding++
				}
			}
			if outstanding > 0 {
				continue
			}
			// Every replica has answered. Only shares from more than one
			// epoch make this an epoch conflict; otherwise too few answered.
			if len(byEpoch) > 1 {
				return nil, fmt.Errorf("replicas disagree on refresh epoch: %w", threshold.ErrMixedEpochs)
			}
			return nil, fmt.Errorf("quorum not reached: %d of %d shares, no replicas left: %w", best, s.cfg.T, lastErr)
		}
	}
}

// handleHealthz probes every replica concurrently with a short deadline and
// reports quorum: 200 when at least T replicas answer, 503 otherwise. The
// per-replica section carries probe latency.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := withTimeout(r.Context(), s.cfg.clk, probeTimeout)
	defer cancel()
	type probe struct {
		i  int
		up bool
		d  time.Duration
	}
	probes := make(chan probe, len(s.replicas))
	for i, rep := range s.replicas {
		go func(i int, rep *replica) {
			t0 := s.cfg.clk.Now()
			err := rep.issuer.Healthy(ctx)
			d := s.cfg.clk.Now().Sub(t0)
			if err != nil {
				rep.probeNanos.Store(-1)
			} else {
				rep.probeNanos.Store(d.Nanoseconds())
			}
			probes <- probe{i, err == nil, d}
		}(i, rep)
	}
	alive := 0
	rh := make([]replicaHealth, len(s.replicas))
	for range s.replicas {
		p := <-probes
		rep := s.replicas[p.i]
		micros := int64(-1)
		if p.up {
			alive++
			micros = p.d.Microseconds()
		}
		rh[p.i] = replicaHealth{Name: rep.issuer.Name(), Up: p.up, ProbeMicros: micros}
	}
	h := healthResponse{Status: "ok", T: s.cfg.T, N: len(s.replicas), SignersUp: alive, Replicas: rh}
	status := http.StatusOK
	if alive < s.cfg.T {
		h.Status = "degraded: below quorum"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.writePrometheus(w)
	s.writeReplicaMetrics(w)
}

// writeReplicaMetrics renders the labeled per-replica series: last probe
// latency and share-RPC failures.
func (s *Server) writeReplicaMetrics(w io.Writer) {
	fmt.Fprint(w, "# HELP kgcd_replica_probe_latency_seconds Last health-probe round-trip per replica (-1 = probe failed, 0 = never probed).\n# TYPE kgcd_replica_probe_latency_seconds gauge\n")
	for _, rep := range s.replicas {
		v := float64(rep.probeNanos.Load()) / 1e9
		if rep.probeNanos.Load() < 0 {
			v = -1
		}
		fmt.Fprintf(w, "kgcd_replica_probe_latency_seconds{replica=%q} %g\n", rep.issuer.Name(), v)
	}
	fmt.Fprint(w, "# HELP kgcd_replica_share_failures_total Share RPCs that errored, per replica.\n# TYPE kgcd_replica_share_failures_total counter\n")
	for _, rep := range s.replicas {
		fmt.Fprintf(w, "kgcd_replica_share_failures_total{replica=%q} %d\n", rep.issuer.Name(), rep.shareFailures.Value())
	}
}
