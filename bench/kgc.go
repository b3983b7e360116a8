package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"mccls/internal/bn254"
	"mccls/internal/core"
	"mccls/internal/kgcd"
	"mccls/internal/threshold"
)

// The KGC workloads: what an operator's fleet waits for when it enrolls.
// The deployment is assembled from the same public pieces kgcd.StartCluster
// uses, by hand, so that the traced pass can wrap the combiner's handler as
// well as the signers' in a span middleware.

const (
	kgcT, kgcN   = 2, 3
	oracleChecks = 64 // partial keys compared with the single-master oracle
	connWarmups  = 32 // enrollments kgc_cold's set-up opens its connections with
	spanHeader   = "X-Bench-Span"
)

// spanRef carries the calling span across an HTTP hop, so that the spans
// of one enrollment (client, combiner, signers) form one tree.
type spanRef struct {
	id int32
	op int64
}

type spanKey struct{}

// spanTransport copies the context's span into a request header.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(spanKey{}).(spanRef); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, fmt.Sprintf("%d,%d", ref.id, ref.op))
	}
	return t.base.RoundTrip(r)
}

// spanMiddleware records one span per request served, a child of the span
// named in the request header, and hands its own span on through the
// request context (the combiner's fan-out derives its contexts from it).
func spanMiddleware(tr *tracer, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref := spanRef{id: -1}
		if p, o, ok := strings.Cut(r.Header.Get(spanHeader), ","); ok {
			id, _ := strconv.ParseInt(p, 10, 32)
			ref.id = int32(id)
			ref.op, _ = strconv.ParseInt(o, 10, 64)
		}
		s := tr.begin(name, ref.id, ref.op)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{id: s, op: ref.op})))
		tr.end(s)
	})
}

func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConns: 8, MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute}
}

// deployment is a running 2-of-3 KGC: three signer replicas and the
// combiner, each on its own loopback listener (real sockets), plus one
// kgcd.Client per closed-loop client.
type deployment struct {
	seed    int64
	params  *core.Params
	oracle  *core.KGC // single-master reference for the issued keys
	clients []*kgcd.Client
	servers []*http.Server
	idle    []*http.Transport
	wg      sync.WaitGroup

	base map[string]float64 // combiner counters when set-up finished

	mu      sync.Mutex
	sampled map[string][]byte // identity → marshalled partial key received
}

func startDeployment(seed int64, nClients int, tr *tracer) (*deployment, error) {
	rng := rand.New(rand.NewSource(seed))
	master, err := bn254.RandomScalar(rng)
	if err != nil {
		return nil, err
	}
	oracle, err := core.NewKGCFromMaster(master)
	if err != nil {
		return nil, err
	}
	shares, err := threshold.Split(master, kgcT, kgcN, rng)
	if err != nil {
		return nil, err
	}
	d := &deployment{seed: seed, params: oracle.Params(), oracle: oracle, sampled: map[string][]byte{}}
	d.params.Precompute()
	var signerURLs []string
	for _, sh := range shares {
		signer, err := threshold.NewSigner(d.params, sh)
		if err != nil {
			d.close()
			return nil, err
		}
		u, err := d.serve(tr, "kgcd.signer_handler", kgcd.NewSignerHandler(signer, 0))
		if err != nil {
			d.close()
			return nil, err
		}
		signerURLs = append(signerURLs, u)
	}
	cfg := kgcd.Config{
		Params: d.params, T: kgcT, SignerURLs: signerURLs,
		// The rate limiter is on, with limits no honest request reaches.
		RatePerSec: 1000, RateBurst: 1000,
	}
	if tr != nil {
		tp := newTransport()
		d.idle = append(d.idle, tp)
		cfg.HTTPClient = &http.Client{Transport: spanTransport{tp}}
	}
	srv, err := kgcd.NewServer(cfg)
	if err != nil {
		d.close()
		return nil, err
	}
	url, err := d.serve(tr, "kgcd.combiner_handler", srv.Handler())
	if err != nil {
		d.close()
		return nil, err
	}
	for c := 0; c < nClients; c++ {
		tp := newTransport()
		d.idle = append(d.idle, tp)
		var rt http.RoundTripper = tp
		if tr != nil {
			rt = spanTransport{tp}
		}
		d.clients = append(d.clients, kgcd.NewClient(url, &http.Client{Timeout: 5 * time.Second, Transport: rt}))
	}
	return d, nil
}

func (d *deployment) serve(tr *tracer, name string, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	if tr != nil {
		h = spanMiddleware(tr, name, h)
	}
	srv := kgcd.NewHTTPServer(h)
	d.servers = append(d.servers, srv)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed from close
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops every server and waits for its accept loop to return.
func (d *deployment) close() {
	for _, tp := range d.idle {
		tp.CloseIdleConnections()
	}
	for _, s := range d.servers {
		_ = s.Close()
	}
	d.wg.Wait()
}

// preEnroll enrolls the identities through all clients side by side, as
// part of set-up, and takes the counter baseline layerCounts subtracts.
func (d *deployment) preEnroll(ids []string) error {
	var wg sync.WaitGroup
	errs := make([]error, len(d.clients))
	for c := range d.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < len(ids) && errs[c] == nil; k += len(d.clients) {
				_, errs[c] = d.clients[c].Enroll(context.Background(), ids[k])
			}
		}(c)
	}
	wg.Wait()
	d.base = d.scrape()
	return errors.Join(errs...)
}

// enroll is one closed-loop request. wantCached is what the combiner must
// say about its cache for the answer to count as right.
func (d *deployment) enroll(client int, i int64, id string, wantCached bool, tr *tracer) (sample, bool) {
	sc := tr.root(i)
	s := sc.begin("kgcd.Client.Enroll")
	ctx := context.Background()
	if s >= 0 {
		ctx = context.WithValue(ctx, spanKey{}, spanRef{id: s, op: i})
	}
	t := time.Now()
	res, err := d.clients[client].Enroll(ctx, id)
	dur := time.Since(t)
	tr.end(s)
	tr.end(sc.parent)
	ok := err == nil && res.Cached == wantCached && res.PartialKey.ID == id
	if ok {
		d.mu.Lock()
		if len(d.sampled) < oracleChecks {
			d.sampled[id] = res.PartialKey.Marshal()
		}
		d.mu.Unlock()
	}
	return sample{dur: dur, work: 1, gated: true}, ok
}

// controls compares the sampled keys byte for byte with what a
// single-master KGC issues, and validates them against the parameters.
func (d *deployment) controls() (attempted, failed int) {
	for id, got := range d.sampled {
		attempted++
		want := d.oracle.ExtractPartialPrivateKey(id)
		ppk, err := core.UnmarshalPartialPrivateKey(got)
		if !bytes.Equal(got, want.Marshal()) || err != nil || ppk.Validate(d.params) != nil {
			failed++
		}
	}
	return attempted, failed
}

// scrape reads the combiner's /metrics counters.
func (d *deployment) scrape() map[string]float64 {
	out := map[string]float64{}
	text, err := d.clients[0].RawMetrics(context.Background())
	if err != nil {
		return out
	}
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

func (d *deployment) layerCounts() map[string]float64 {
	now := d.scrape()
	delta := func(name string) float64 { return now[name] - d.base[name] }
	out := map[string]float64{}
	if m := delta("kgcd_cache_misses_total"); m > 0 {
		out["kgcd.shares_per_miss"] = delta("kgcd_share_requests_total") / m
	}
	if n := delta("kgcd_enroll_total"); n > 0 {
		out["kgcd.hedges_per_1k"] = 1000 * delta("kgcd_hedged_requests_total") / n
		out["kgcd.cache_hit_ratio"] = delta("kgcd_cache_hits_total") / n
	}
	return out
}

// --- kgc_cold ---

type kgcCold struct{ *deployment }

func setupKGCCold(seed int64, tr *tracer) (instance, error) {
	d, err := startDeployment(seed, 2, tr)
	if err != nil {
		return nil, err
	}
	// Every keep-alive connection (clients to combiner, combiner to each
	// signer) is opened before the loop is timed.
	var boot []string
	for k := 0; k < connWarmups; k++ {
		boot = append(boot, fmt.Sprintf("boot-%d-%d", seed, k))
	}
	if err := d.preEnroll(boot); err != nil {
		d.close()
		return nil, err
	}
	return kgcCold{d}, nil
}

func (w kgcCold) op(client int, i int64, tr *tracer) (sample, bool) {
	return w.enroll(client, i, fmt.Sprintf("fleet-%d-%d", w.seed, i), false, tr)
}

// --- kgc_warm ---

type kgcWarm struct {
	*deployment
	ids []string
}

func setupKGCWarm(seed int64, tr *tracer) (instance, error) {
	d, err := startDeployment(seed, 2, tr)
	if err != nil {
		return nil, err
	}
	w := kgcWarm{deployment: d}
	for k := 0; k < sizes.warmIDs; k++ {
		w.ids = append(w.ids, fmt.Sprintf("fleet-%d-%d", seed, k))
	}
	// The fleet's first boot.
	if err := d.preEnroll(w.ids); err != nil {
		d.close()
		return nil, err
	}
	return w, nil
}

func (w kgcWarm) op(client int, i int64, tr *tracer) (sample, bool) {
	// A uniform draw that depends only on the seed and the op number.
	return w.enroll(client, i, w.ids[mix(w.seed, i)%uint64(len(w.ids))], true, tr)
}

// mix is a splitmix64 step over (seed, i).
func mix(seed, i int64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
