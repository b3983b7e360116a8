package kgcd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/big"
	mrand "math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mccls/internal/core"
	"mccls/internal/faulthttp"
	"mccls/internal/threshold"
)

// startSignerDeployment is startTestDeployment plus direct access to the
// threshold signers (for applying refreshes out-of-band) and per-signer
// middleware (for injecting faults).
func startSignerDeployment(t *testing.T, tt, n int, master *big.Int, cfg Config,
	mw func(i int, h http.Handler) http.Handler) (*httptest.Server, []*threshold.Signer, *core.KGC) {
	t.Helper()
	kgc, err := core.NewKGCFromMaster(master)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := threshold.Split(master, tt, n, mrand.New(mrand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	var signers []*threshold.Signer
	var urls []string
	for i, sh := range shares {
		signer, err := threshold.NewSigner(kgc.Params(), sh)
		if err != nil {
			t.Fatal(err)
		}
		signers = append(signers, signer)
		var h http.Handler = NewSignerHandler(signer, 0)
		if mw != nil {
			h = mw(i, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	cfg.Params = kgc.Params()
	cfg.T = tt
	cfg.SignerURLs = urls
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	comb := httptest.NewServer(srv.Handler())
	t.Cleanup(comb.Close)
	return comb, signers, kgc
}

func postEnroll(t *testing.T, url, id string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(enrollRequest{ID: id})
	resp, err := http.Post(url+"/enroll", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestDegradedModeFailsFastWithRetryAfter drives a 1-of-1 deployment whose
// only replica is dead: once the breaker trips, cache misses are refused
// immediately with 503 + Retry-After while cache hits keep being served.
func TestDegradedModeFailsFastWithRetryAfter(t *testing.T) {
	comb, signerSrvs, _ := startTestDeployment(t, 1, 1, testMaster(40), Config{
		Breaker: BreakerConfig{Window: 2, MinSamples: 2, FailureRate: 0.5, Cooldown: 30 * time.Second},
	})
	c := NewClientWithConfig(comb.URL, nil, ClientConfig{MaxAttempts: 1})
	ctx := context.Background()

	// Warm the cache, then kill the replica.
	if _, err := c.Enroll(ctx, "warm"); err != nil {
		t.Fatal(err)
	}
	signerSrvs[0].Close()

	// One failed miss fills the 2-slot window to the 50% trip rate (the
	// warm success is the other sample): the breaker opens.
	resp := postEnroll(t, comb.URL, "miss-a")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("enroll with dead replica: status %d", resp.StatusCode)
	}

	// Tripped: misses fail fast with a retry hint.
	start := time.Now()
	resp = postEnroll(t, comb.URL, "miss-b")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded miss: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("degraded 503 missing Retry-After")
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("degraded miss took %v, want fail-fast", d)
	}

	// Cache hits are unaffected.
	res, err := c.Enroll(ctx, "warm")
	if err != nil {
		t.Fatalf("cached enroll while degraded: %v", err)
	}
	if !res.Cached {
		t.Error("expected a cache hit")
	}

	// The surface shows it: degraded counter and open breaker state.
	text, err := c.RawMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"kgcd_degraded_total 1",
		`kgcd_replica_breaker_state{replica="` + signerSrvs[0].URL + `"} 1`,
		`kgcd_replica_breaker_opens_total{replica="` + signerSrvs[0].URL + `"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, grepLines(text, "degraded")+"\n"+grepLines(text, "breaker"))
		}
	}
}

// TestBreakerReadmitsRecoveredReplica trips a breaker, then brings the
// replica "back" and checks a probe readmits it after the cooldown.
func TestBreakerReadmitsRecoveredReplica(t *testing.T) {
	var down atomic.Bool
	comb, _, kgc := startSignerDeployment(t, 1, 1, testMaster(41), Config{
		Breaker: BreakerConfig{Window: 2, MinSamples: 2, FailureRate: 0.5, Cooldown: 100 * time.Millisecond},
	}, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if down.Load() {
				panic(http.ErrAbortHandler)
			}
			h.ServeHTTP(w, r)
		})
	})
	ctx := context.Background()
	c := NewClientWithConfig(comb.URL, nil, ClientConfig{MaxAttempts: 1})

	down.Store(true)
	for i := 0; i < 2; i++ {
		resp := postEnroll(t, comb.URL, "x")
		resp.Body.Close()
	}
	if resp := postEnroll(t, comb.URL, "x"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("tripped breaker: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	down.Store(false)
	time.Sleep(150 * time.Millisecond) // past cooldown: half-open probe allowed
	res, err := c.Enroll(ctx, "x")
	if err != nil {
		t.Fatalf("enroll after recovery: %v", err)
	}
	want := kgc.ExtractPartialPrivateKey("x")
	if !bytes.Equal(res.PartialKey.Marshal(), want.Marshal()) {
		t.Fatal("post-recovery key differs from single master")
	}
}

// TestHedgedFanOut puts one slow replica in the initial fan-out; the hedge
// fires a spare to the remaining replica and the enrollment completes well
// under the injected latency.
func TestHedgedFanOut(t *testing.T) {
	in := faulthttp.New(faulthttp.Schedule{
		Latency: []faulthttp.Latency{{Target: "slow", From: 0, To: time.Hour, Delay: 2 * time.Second}},
	})
	in.Start()
	comb, _, kgc := startSignerDeployment(t, 2, 3, testMaster(42), Config{
		HedgeDelay:     20 * time.Millisecond,
		RequestTimeout: 5 * time.Second,
	}, func(i int, h http.Handler) http.Handler {
		if i == 1 { // a fresh server's rotation starts at replica 1
			return faulthttp.Middleware(in, "slow", h)
		}
		return h
	})
	c := NewClientWithConfig(comb.URL, nil, ClientConfig{MaxAttempts: 1})

	start := time.Now()
	res, err := c.Enroll(context.Background(), "hedged")
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("enrollment took %v; the hedge did not rescue the straggler", d)
	}
	want := kgc.ExtractPartialPrivateKey("hedged")
	if !bytes.Equal(res.PartialKey.Marshal(), want.Marshal()) {
		t.Fatal("hedged key differs from single master")
	}
	text, err := c.RawMetrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "kgcd_hedged_requests_total 1") {
		t.Errorf("hedge not counted:\n%s", grepLines(text, "hedged"))
	}
}

// TestGatherSurvivesMixedEpochs refreshes two of three replicas and leaves
// one behind: the combiner must notice the epoch conflict, pull in the
// third replica, and return a clean same-epoch quorum. Hedging is off so the
// mixed-epoch path is the only path: with the adaptive hedge, a loaded box
// can fire the 5 ms spare before the lagging replica answers, the two
// refreshed replicas complete a clean quorum, and no conflict is ever seen.
func TestGatherSurvivesMixedEpochs(t *testing.T) {
	comb, signers, kgc := startSignerDeployment(t, 2, 3, testMaster(43), Config{HedgeDelay: -1}, nil)
	deltas, err := threshold.RefreshDeltas(2, 3, 1, mrand.New(mrand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	// Replicas 0 and 2 advance to epoch 1; replica 1 (first in the fresh
	// server's rotation) stays at epoch 0.
	for _, i := range []int{0, 2} {
		if _, err := signers[i].ApplyRefresh(deltas[i]); err != nil {
			t.Fatal(err)
		}
	}

	c := NewClientWithConfig(comb.URL, nil, ClientConfig{MaxAttempts: 1})
	res, err := c.Enroll(context.Background(), "mixed")
	if err != nil {
		t.Fatalf("enroll across mixed epochs: %v", err)
	}
	want := kgc.ExtractPartialPrivateKey("mixed")
	if !bytes.Equal(res.PartialKey.Marshal(), want.Marshal()) {
		t.Fatal("mixed-epoch gather produced a wrong key")
	}
	text, err := c.RawMetrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "kgcd_epoch_conflicts_total 1") {
		t.Errorf("epoch conflict not counted:\n%s", grepLines(text, "epoch"))
	}
}

func grepLines(text, substr string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

func TestClientRetriesTransientFailures(t *testing.T) {
	comb, _, kgc := startTestDeployment(t, 1, 1, testMaster(44), Config{})
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			writeError(w, http.StatusServiceUnavailable, "transient")
			return
		}
		resp, err := http.Post(comb.URL+r.URL.Path, r.Header.Get("Content-Type"), r.Body)
		if err != nil {
			writeError(w, http.StatusBadGateway, err.Error())
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		if _, err := w.Write([]byte{}); err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err == nil {
			w.Write(buf.Bytes())
		}
	}))
	defer flaky.Close()

	c := NewClientWithConfig(flaky.URL, nil, ClientConfig{
		MaxAttempts: 3, BackoffBase: 10 * time.Millisecond, JitterSeed: 7,
	})
	res, err := c.Enroll(context.Background(), "retry-me")
	if err != nil {
		t.Fatalf("enroll through flaky front-end: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("made %d attempts, want 3", got)
	}
	want := kgc.ExtractPartialPrivateKey("retry-me")
	if !bytes.Equal(res.PartialKey.Marshal(), want.Marshal()) {
		t.Fatal("retried key differs from single master")
	}
}

func TestEnrollErrorSemantics(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		switch r.Header.Get("X-Case") {
		case "fatal":
			writeError(w, http.StatusBadRequest, "identity length must be in [1, 256]")
		default:
			w.Header().Set("Retry-After", "7")
			writeError(w, http.StatusServiceUnavailable, "quorum unavailable")
		}
	}))
	defer srv.Close()

	// Retryable 503 with Retry-After: all attempts consumed, hint parsed.
	hc := &http.Client{Transport: headerTransport{"X-Case", "retryable"}}
	c := NewClientWithConfig(srv.URL, hc, ClientConfig{
		MaxAttempts: 2, BackoffBase: 5 * time.Millisecond, BackoffCap: 20 * time.Millisecond,
	})
	_, err := c.Enroll(context.Background(), "x")
	var ee *EnrollError
	if !errors.As(err, &ee) {
		t.Fatalf("want *EnrollError, got %T: %v", err, err)
	}
	if ee.Status != http.StatusServiceUnavailable || !ee.Retryable() {
		t.Fatalf("status %d retryable %v", ee.Status, ee.Retryable())
	}
	if ee.RetryAfter != 7*time.Second {
		t.Fatalf("RetryAfter %v, want 7s", ee.RetryAfter)
	}
	if !strings.Contains(ee.Body, "quorum unavailable") {
		t.Fatalf("body snippet %q", ee.Body)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("retryable error: %d attempts, want 2", got)
	}

	// Fatal 400: a single attempt, Retryable() false.
	calls.Store(0)
	hc = &http.Client{Transport: headerTransport{"X-Case", "fatal"}}
	c = NewClientWithConfig(srv.URL, hc, ClientConfig{MaxAttempts: 3, BackoffBase: 5 * time.Millisecond})
	_, err = c.Enroll(context.Background(), "x")
	if !errors.As(err, &ee) || ee.Status != http.StatusBadRequest || ee.Retryable() {
		t.Fatalf("fatal case: %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("fatal error: %d attempts, want 1", got)
	}

	// Transport failure: Status 0, retryable.
	srv.Close()
	c = NewClientWithConfig(srv.URL, nil, ClientConfig{MaxAttempts: 1})
	_, err = c.Enroll(context.Background(), "x")
	if !errors.As(err, &ee) || ee.Status != 0 || !ee.Retryable() {
		t.Fatalf("transport case: %v", err)
	}
}

// headerTransport stamps one header on every request.
type headerTransport struct{ k, v string }

func (t headerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req.Header.Set(t.k, t.v)
	return http.DefaultTransport.RoundTrip(req)
}

// TestClusterRefreshKeepsIssuedBytes runs a full proactive refresh over a
// live cluster and pins issuance on both sides of it to the single-master
// oracle: the epoch moves, the keys do not.
func TestClusterRefreshKeepsIssuedBytes(t *testing.T) {
	master := testMaster(45)
	cl, err := StartCluster(ClusterConfig{
		T: 2, N: 3, Master: master, Rng: mrand.New(mrand.NewSource(11)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	kgc, err := core.NewKGCFromMaster(master)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(cl.URL, nil)
	ctx := context.Background()

	before, err := c.Enroll(ctx, "pre-refresh")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.PartialKey.Marshal(), kgc.ExtractPartialPrivateKey("pre-refresh").Marshal()) {
		t.Fatal("pre-refresh key differs from single master")
	}

	for round := uint32(1); round <= 2; round++ {
		epoch, err := cl.Refresh(ctx)
		if err != nil {
			t.Fatalf("refresh round %d: %v", round, err)
		}
		if epoch != round || cl.Epoch() != round {
			t.Fatalf("epoch %d after round %d", epoch, round)
		}
		id := "post-refresh-" + string(rune('0'+round))
		res, err := c.Enroll(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.PartialKey.Marshal(), kgc.ExtractPartialPrivateKey(id).Marshal()) {
			t.Fatalf("round %d: refreshed issuance differs from single master", round)
		}
	}
}

// TestClusterShutdownDrainsInFlight slows the signer path, starts an
// enrollment, and shuts the cluster down mid-flight: the request must
// complete, and the listeners must then be closed.
func TestClusterShutdownDrainsInFlight(t *testing.T) {
	in := faulthttp.New(faulthttp.Schedule{
		Latency: []faulthttp.Latency{{From: 0, To: time.Hour, Delay: 300 * time.Millisecond}},
	})
	in.Start()
	master := testMaster(46)
	cl, err := StartCluster(ClusterConfig{
		T: 2, N: 3, Master: master, Rng: mrand.New(mrand.NewSource(12)),
		SignerMiddleware: func(i int, h http.Handler) http.Handler {
			return faulthttp.Middleware(in, "", h)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	c := NewClientWithConfig(cl.URL, nil, ClientConfig{MaxAttempts: 1})
	type outcome struct {
		res *EnrollResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := c.Enroll(context.Background(), "in-flight")
		done <- outcome{res, err}
	}()
	time.Sleep(100 * time.Millisecond) // request is inside the signer delay

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cl.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	o := <-done
	if o.err != nil {
		t.Fatalf("in-flight enrollment failed during shutdown: %v", o.err)
	}
	kgc, err := core.NewKGCFromMaster(master)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(o.res.PartialKey.Marshal(), kgc.ExtractPartialPrivateKey("in-flight").Marshal()) {
		t.Fatal("drained key differs from single master")
	}

	// The drained listeners refuse new work.
	if _, err := c.Enroll(context.Background(), "too-late"); err == nil {
		t.Fatal("enrollment accepted after shutdown")
	}
}
