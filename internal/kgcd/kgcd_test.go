package kgcd

import (
	"bytes"
	"context"
	"encoding/hex"
	"math/big"
	mrand "math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mccls/internal/bn254"
	"mccls/internal/core"
	"mccls/internal/threshold"
)

func testMaster(seed byte) *big.Int {
	k := bn254.HashToFr("kgcd/test", []byte{seed})
	return k.BigInt()
}

// deployment is a t-of-n kgcd on httptest servers, with handles on every
// layer a test may want to reach into.
type deployment struct {
	comb     *httptest.Server   // the combiner's front end
	srv      *Server            // the combiner behind it
	replicas []*httptest.Server // close one to kill a replica
	signers  []*threshold.Signer
	kgc      *core.KGC // the single-master oracle
}

// startDeployment shards master t-of-n, serves each signer replica (wrapped
// in mw when non-nil) and a combiner over them configured by cfg.
func startDeployment(t testing.TB, tt, n int, master *big.Int, cfg Config,
	mw func(i int, h http.Handler) http.Handler) *deployment {
	t.Helper()
	kgc, err := core.NewKGCFromMaster(master)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := threshold.Split(master, tt, n, mrand.New(mrand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	d := &deployment{kgc: kgc}
	for i, sh := range shares {
		signer, err := threshold.NewSigner(kgc.Params(), sh)
		if err != nil {
			t.Fatal(err)
		}
		h := NewSignerHandler(signer, 0)
		if mw != nil {
			h = mw(i, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		d.signers = append(d.signers, signer)
		d.replicas = append(d.replicas, ts)
		cfg.SignerURLs = append(cfg.SignerURLs, ts.URL)
	}
	cfg.Params = kgc.Params()
	cfg.T = tt
	if d.srv, err = NewServer(cfg); err != nil {
		t.Fatal(err)
	}
	d.comb = httptest.NewServer(d.srv.Handler())
	t.Cleanup(d.comb.Close)
	return d
}

// testCluster splits master 2-of-3 and starts a Cluster over the shares,
// with cfg's middleware and combiner tuning; it returns the cluster and the
// single-master oracle.
func testCluster(t *testing.T, master *big.Int, cfg ClusterConfig) (*Cluster, *core.KGC) {
	t.Helper()
	kgc, err := core.NewKGCFromMaster(master)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Shares, err = threshold.Split(master, 2, 3, mrand.New(mrand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	cfg.Combiner.Params, cfg.Combiner.T = kgc.Params(), 2
	cl, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl, kgc
}

// healthzStatus is the combiner's GET /healthz status code.
func healthzStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestEnrollEndToEnd(t *testing.T) {
	d := startDeployment(t, 2, 3, testMaster(1), Config{}, nil)
	kgc := d.kgc
	c := NewClient(d.comb.URL, nil)
	ctx := context.Background()

	params := kgc.Params()
	var pr paramsResponse
	if err := call(ctx, http.DefaultClient, d.comb.URL+"/params", nil, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Ppub != hex.EncodeToString(params.Marshal()) {
		t.Fatal("served parameters differ from KGC's")
	}

	const id = "pump-station-9"
	res, err := c.Enroll(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("first enrollment reported cached")
	}
	// Threshold-issued key is byte-identical to single-master issuance.
	want := kgc.ExtractPartialPrivateKey(id)
	if !bytes.Equal(res.PartialKey.Marshal(), want.Marshal()) {
		t.Fatal("threshold-issued partial key differs from single master")
	}

	// Second enrollment is a cache hit with the same key.
	res2, err := c.Enroll(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Error("second enrollment missed the cache")
	}
	if !bytes.Equal(res2.PartialKey.Marshal(), res.PartialKey.Marshal()) {
		t.Fatal("cached key differs")
	}

	// The enrolled key completes a working certificateless keypair.
	sk, err := core.GenerateKeyPair(params, res.PartialKey, nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("flow=120L/s")
	sig, err := core.Sign(params, sk, msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.NewVerifier(params).Verify(sk.Public(), msg, sig); err != nil {
		t.Fatal(err)
	}

	if got := healthzStatus(t, d.comb.URL); got != http.StatusOK {
		t.Fatalf("healthz at full strength: status %d", got)
	}
}

func TestEnrollSurvivesReplicaLoss(t *testing.T) {
	d := startDeployment(t, 2, 3, testMaster(2), Config{}, nil)
	c := NewClient(d.comb.URL, nil)
	ctx := context.Background()

	// n−t replicas down: still serving.
	d.replicas[0].Close()
	res, err := c.Enroll(ctx, "node-a")
	if err != nil {
		t.Fatalf("enroll with 2/3 replicas: %v", err)
	}
	want := d.kgc.ExtractPartialPrivateKey("node-a")
	if !bytes.Equal(res.PartialKey.Marshal(), want.Marshal()) {
		t.Fatal("degraded-mode key differs from single master")
	}

	// Below quorum: enrollment fails, healthz degrades, but cached
	// identities are still served.
	d.replicas[1].Close()
	if status, _ := postEnroll(t, d.comb.URL, "node-b"); status != http.StatusServiceUnavailable {
		t.Fatalf("enroll below quorum: status %d, want 503", status)
	}
	if got := healthzStatus(t, d.comb.URL); got != http.StatusServiceUnavailable {
		t.Fatalf("healthz below quorum: status %d, want 503", got)
	}
	res2, err := c.Enroll(ctx, "node-a")
	if err != nil {
		t.Fatalf("cached enroll below quorum: %v", err)
	}
	if !res2.Cached {
		t.Error("expected cache hit below quorum")
	}
}

func TestEnrollRejectsBadRequests(t *testing.T) {
	d := startDeployment(t, 1, 1, testMaster(3), Config{}, nil)
	post := func(body string) int {
		resp, err := http.Post(d.comb.URL+"/enroll", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(`{"id":""}`); got != http.StatusBadRequest {
		t.Errorf("empty id: got %d", got)
	}
	if got := post(`{"id":"` + strings.Repeat("x", MaxIDLen+1) + `"}`); got != http.StatusBadRequest {
		t.Errorf("oversized id: got %d", got)
	}
	if got := post(`{`); got != http.StatusBadRequest {
		t.Errorf("malformed JSON: got %d", got)
	}
	if got := post(`{"id":"a","extra":1}`); got != http.StatusBadRequest {
		t.Errorf("unknown field: got %d", got)
	}
	if got := post(`{"id":"` + strings.Repeat("y", maxBodyBytes) + `"}`); got != http.StatusBadRequest {
		t.Errorf("oversized body: got %d", got)
	}
}

func TestEnrollRateLimited(t *testing.T) {
	d := startDeployment(t, 1, 1, testMaster(4), Config{
		RatePerSec: 0.001, RateBurst: 2,
	}, nil)
	c := NewClient(d.comb.URL, nil)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := c.Enroll(ctx, "greedy"); err != nil {
			t.Fatalf("enroll %d within burst: %v", i, err)
		}
	}
	// The bucket is dry; the client's retries (429 is retryable) find it
	// still dry, their backoff elapsing on the fake clock.
	clk := newFakeClock()
	c.clk = clk
	var err error
	clk.drive(backoffCap, func() { _, err = c.Enroll(ctx, "greedy") })
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("third enroll: want 429, got %v", err)
	}
	if len(clk.fired) != maxAttempts-1 {
		t.Fatalf("backoffs %v, want %d of them", clk.fired, maxAttempts-1)
	}
	// Other identities are unaffected.
	if _, err := c.Enroll(ctx, "patient"); err != nil {
		t.Fatalf("independent identity rate limited: %v", err)
	}
}

func TestMetricsExposition(t *testing.T) {
	d := startDeployment(t, 2, 2, testMaster(5), Config{}, nil)
	c := NewClient(d.comb.URL, nil)
	ctx := context.Background()
	if _, err := c.Enroll(ctx, "m1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Enroll(ctx, "m1"); err != nil {
		t.Fatal(err)
	}
	text, err := c.RawMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"kgcd_enroll_total 2",
		"kgcd_cache_hits_total 1",
		"kgcd_cache_misses_total 1",
		"kgcd_share_requests_total 2",
		"kgcd_enroll_latency_seconds_count 2",
		`kgcd_enroll_latency_seconds_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

func TestStartCluster(t *testing.T) {
	cl, kgc := testCluster(t, testMaster(6), ClusterConfig{})
	if len(cl.SignerURLs) != 3 {
		t.Fatalf("got %d signer URLs", len(cl.SignerURLs))
	}
	c := NewClient(cl.URL, nil)
	res, err := c.Enroll(context.Background(), "cluster-node")
	if err != nil {
		t.Fatal(err)
	}
	want := kgc.ExtractPartialPrivateKey("cluster-node")
	if !bytes.Equal(res.PartialKey.Marshal(), want.Marshal()) {
		t.Fatal("cluster-issued key differs from single master")
	}
}

func TestNewServerRejectsBadConfig(t *testing.T) {
	kgc, err := core.NewKGCFromMaster(testMaster(8))
	if err != nil {
		t.Fatal(err)
	}
	cases := []Config{
		{},                     // no params
		{Params: kgc.Params()}, // no signers
		{Params: kgc.Params(), T: 2, SignerURLs: []string{"http://a"}}, // t > n
		{Params: kgc.Params(), T: 0, SignerURLs: []string{"http://a"}}, // t < 1
	}
	for i, cfg := range cases {
		if _, err := NewServer(cfg); err == nil {
			t.Errorf("config %d: want error", i)
		}
	}
}

func TestRateLimiterRefill(t *testing.T) {
	rl := newRateLimiter(2, 2, 16) // 2/s, burst 2
	now := time.Unix(0, 0)
	if !rl.Allow("x", now) || !rl.Allow("x", now) {
		t.Fatal("burst denied")
	}
	if rl.Allow("x", now) {
		t.Fatal("over-burst allowed")
	}
	now = now.Add(500 * time.Millisecond) // refills one token
	if !rl.Allow("x", now) {
		t.Fatal("refilled token denied")
	}
	if rl.Allow("x", now) {
		t.Fatal("second token allowed after half-second")
	}
	// Disabled limiter always allows.
	open := newRateLimiter(-1, 1, 1)
	for i := 0; i < 100; i++ {
		if !open.Allow("y", now) {
			t.Fatal("disabled limiter denied")
		}
	}
}
