package kgcd

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	mrand "math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mccls/internal/bn254"
	"mccls/internal/bn254/fp"
	"mccls/internal/core"
	"mccls/internal/fault"
	"mccls/internal/threshold"
)

// postEnroll is one raw POST /enroll — no client, so no retries and no
// backoff. It returns the status and, on 200, the issued key.
func postEnroll(t testing.TB, url, id string) (int, []byte) {
	t.Helper()
	body, _ := json.Marshal(idRequest{ID: id})
	resp, err := http.Post(url+"/enroll", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err) // not Fatal: tests call this off the test goroutine too
		return 0, nil
	}
	defer resp.Body.Close()
	var er enrollResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Error(err)
		}
	}
	key, err := hex.DecodeString(er.PartialKey)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, key
}

// metricsText scrapes the combiner's /metrics.
func metricsText(t *testing.T, url string) string {
	t.Helper()
	text, err := NewClient(url, nil).RawMetrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// TestRecoveredReplicaServesNextRequest drives a 1-of-1 deployment whose
// only replica aborts every connection for a while: each miss meanwhile is
// one failed share request and a 503, a cache hit is still served, and the
// first miss after the replica recovers is issued — no cooldown holds a
// recovered replica out. The clock never moves.
func TestRecoveredReplicaServesNextRequest(t *testing.T) {
	const outage = 16
	var down atomic.Bool
	d := startDeployment(t, 1, 1, testMaster(41), Config{RatePerSec: -1, clk: newFakeClock()},
		func(i int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if down.Load() {
					panic(http.ErrAbortHandler)
				}
				h.ServeHTTP(w, r)
			})
		})
	if status, _ := postEnroll(t, d.comb.URL, "warm"); status != http.StatusOK {
		t.Fatalf("enroll before the outage: status %d", status)
	}

	down.Store(true)
	for i := 0; i < outage; i++ {
		if status, _ := postEnroll(t, d.comb.URL, "x"); status != http.StatusServiceUnavailable {
			t.Fatalf("miss %d with the replica down: status %d, want 503", i, status)
		}
	}
	if status, key := postEnroll(t, d.comb.URL, "warm"); status != http.StatusOK ||
		!bytes.Equal(key, d.kgc.ExtractPartialPrivateKey("warm").Marshal()) {
		t.Fatalf("cache hit with the replica down: status %d", status)
	}

	down.Store(false)
	status, key := postEnroll(t, d.comb.URL, "x")
	if status != http.StatusOK {
		t.Fatalf("first miss after recovery: status %d, want 200", status)
	}
	if !bytes.Equal(key, d.kgc.ExtractPartialPrivateKey("x").Marshal()) {
		t.Fatal("post-recovery key differs from single master")
	}
	// One share request per miss, and every one in the outage failed.
	text := metricsText(t, d.comb.URL)
	for _, want := range []string{
		fmt.Sprintf("kgcd_share_requests_total %d", outage+2),
		fmt.Sprintf("kgcd_share_failures_total %d", outage),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, grepLines(text, "share_"))
		}
	}
}

// TestLostQuorumIsNotAnEpochConflict: in a 2-of-3 deployment two replicas
// answer 500 and the survivor answers last. Every share the gather holds
// is from one epoch, so the failure is a lost quorum, not ErrMixedEpochs,
// and no epoch conflict is counted.
func TestLostQuorumIsNotAnEpochConflict(t *testing.T) {
	clk := newFakeClock()
	arrived, release := make(chan struct{}), make(chan struct{})
	d := startDeployment(t, 2, 3, testMaster(49), Config{clk: clk},
		func(i int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if i != 0 {
					writeError(w, http.StatusInternalServerError, "replica fault")
					return
				}
				close(arrived)
				<-release
				h.ServeHTTP(w, r)
			})
		})

	// A fresh server's rotation asks replicas 1 and 2; the first failure
	// sends the replacement to replica 0.
	gathered := make(chan error, 1)
	go func() {
		_, err := d.srv.gatherShares(context.Background(), "lost")
		gathered <- err
	}()
	<-arrived
	for d.srv.metrics.shareFailures.Value() < 2 {
		runtime.Gosched()
	}
	// A share request's timer is stopped only after its result is queued, so
	// with replica 0's the only one left both failures are ahead of its share.
	clk.awaitPending(shareTimeout, 1)
	close(release)

	err := <-gathered
	if err == nil || errors.Is(err, threshold.ErrMixedEpochs) || !strings.Contains(err.Error(), "quorum not reached: 1 of 2 shares") {
		t.Fatalf("gather with one replica up: %v, want a lost quorum", err)
	}
	if n := d.srv.metrics.epochConflicts.Value(); n != 0 {
		t.Fatalf("%d epoch conflicts counted in a one-epoch gather", n)
	}
}

// TestStalledReplicaReplacedAtShareTimeout puts one stalled replica in the
// initial fan-out: its share request is failed by the share timeout, a
// replacement goes to the remaining replica, and the enrollment completes
// without the straggler.
func TestStalledReplicaReplacedAtShareTimeout(t *testing.T) {
	clk := newFakeClock()
	served := make(chan struct{})
	d := startDeployment(t, 2, 3, testMaster(42), Config{clk: clk},
		func(i int, h http.Handler) http.Handler {
			switch i {
			case 1: // a fresh server's rotation starts at replica 1
				return stalled(clk, time.Hour, time.Hour, h)
			case 2:
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					h.ServeHTTP(w, r)
					close(served)
				})
			}
			return h
		})
	// net/http cannot tell a stalled handler that its peer gave up before
	// the body is read, so elapse the straggler's stall or its server never
	// closes.
	defer clk.drive(time.Hour, d.replicas[1].Close)

	done := make(chan []byte, 1)
	go func() {
		_, key := postEnroll(t, d.comb.URL, "stalled")
		done <- key
	}()
	clk.awaitTimer(time.Hour) // replica 1 holds its share request
	<-served
	clk.awaitPending(shareTimeout, 1) // replica 2 has answered; only the straggler's timer is left
	clk.advance(shareTimeout)         // the straggler fails and replica 0 is asked
	if key := <-done; !bytes.Equal(key, d.kgc.ExtractPartialPrivateKey("stalled").Marshal()) {
		t.Fatal("key issued around a stalled replica differs from single master")
	}
	if len(clk.fired) != 1 || clk.fired[0] != shareTimeout {
		t.Fatalf("timers fired %v, want the one %v share timeout", clk.fired, shareTimeout)
	}
	text := metricsText(t, d.comb.URL)
	for _, want := range []string{"kgcd_share_requests_total 3", "kgcd_share_failures_total 1"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, grepLines(text, "share_"))
		}
	}
}

// TestGatherSurvivesMixedEpochs refreshes two of three replicas and leaves
// one behind: the combiner must notice the epoch conflict, pull the third
// replica into the gather, and return a clean same-epoch quorum. The
// conflict is counted exactly once and the key is right.
func TestGatherSurvivesMixedEpochs(t *testing.T) {
	clk := newFakeClock()
	// Every replica holds its answer until released, so the order in which
	// the gather sees them is the test's, not the scheduler's.
	release := []chan struct{}{make(chan struct{}), make(chan struct{}), make(chan struct{})}
	d := startDeployment(t, 2, 3, testMaster(43), Config{clk: clk},
		func(i int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				<-release[i]
				h.ServeHTTP(w, r)
			})
		})
	deltas, err := threshold.RefreshDeltas(2, 3, 1, mrand.New(mrand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	// Replicas 0 and 2 advance to epoch 1; replica 1 (first in the fresh
	// server's rotation) stays at epoch 0.
	for _, i := range []int{0, 2} {
		if _, err := d.signers[i].ApplyRefresh(deltas[i]); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan []byte, 1)
	go func() {
		_, key := postEnroll(t, d.comb.URL, "mixed")
		done <- key
	}()
	clk.awaitPending(shareTimeout, 2) // replicas 1 and 2 are asked
	close(release[1])                 // epoch 0 ...
	close(release[2])                 // ... and epoch 1, in either order: the conflict
	for d.srv.metrics.epochConflicts.Value() == 0 {
		runtime.Gosched() // replica 0 answers only once the gather has seen both
	}
	close(release[0]) // epoch 1: the quorum
	if key := <-done; !bytes.Equal(key, d.kgc.ExtractPartialPrivateKey("mixed").Marshal()) {
		t.Fatal("mixed-epoch gather produced a wrong key")
	}
	text := metricsText(t, d.comb.URL)
	for _, want := range []string{"kgcd_epoch_conflicts_total 1", "kgcd_share_requests_total 3"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, grepLines(text, "epoch")+"\n"+grepLines(text, "share_requests"))
		}
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

// pinnedClient is a client on a fake clock whose jitter draw is fixed.
func pinnedClient(url string, hc *http.Client, jitter float64) (*Client, *fakeClock) {
	c, clk := NewClient(url, hc), newFakeClock()
	c.clk, c.jitter = clk, func() float64 { return jitter }
	return c, clk
}

func TestClientRetriesTransientFailures(t *testing.T) {
	d := startDeployment(t, 1, 1, testMaster(44), Config{}, nil)
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			writeError(w, http.StatusServiceUnavailable, "transient")
			return
		}
		d.srv.Handler().ServeHTTP(w, r)
	}))
	defer flaky.Close()

	c, clk := pinnedClient(flaky.URL, nil, 0)
	var res *EnrollResult
	var err error
	clk.drive(backoffCap, func() { res, err = c.Enroll(context.Background(), "retry-me") })
	if err != nil {
		t.Fatalf("enroll through flaky front-end: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("made %d attempts, want 3", got)
	}
	if want := []time.Duration{backoffBase, 2 * backoffBase}; !slices.Equal(clk.fired, want) {
		t.Fatalf("backoffs %v, want %v", clk.fired, want)
	}
	if !bytes.Equal(res.PartialKey.Marshal(), d.kgc.ExtractPartialPrivateKey("retry-me").Marshal()) {
		t.Fatal("retried key differs from single master")
	}
}

// TestClientJitterDecorrelates: two default clients draw different waits (a
// fleet rebooting together does not retry in lockstep), and a pinned draw
// reproduces the bounds: [d, d·(1+jitterFrac)) around base·2^(n−1), capped.
func TestClientJitterDecorrelates(t *testing.T) {
	a, b := NewClient("http://a.invalid", nil), NewClient("http://b.invalid", nil)
	if da, db := a.backoff(1), b.backoff(1); da == db {
		t.Fatalf("two default clients drew the same first backoff %v", da)
	}
	for i := 0; i < 100; i++ {
		if d := a.backoff(1); d < backoffBase || d >= backoffBase+backoffBase/4 {
			t.Fatalf("backoff %v outside [%v, %v)", d, backoffBase, backoffBase+backoffBase/4)
		}
	}
	lo, _ := pinnedClient("http://a.invalid", nil, 0)
	hi, _ := pinnedClient("http://a.invalid", nil, 1) // the supremum of the draw
	for _, tc := range []struct {
		n    int
		want time.Duration
	}{
		{1, backoffBase},
		{2, 2 * backoffBase},
		{10, backoffCap},
	} {
		if got := lo.backoff(tc.n); got != tc.want {
			t.Errorf("backoff(%d) at jitter 0 = %v, want %v", tc.n, got, tc.want)
		}
		if got, want := hi.backoff(tc.n), tc.want+tc.want/4; got != want {
			t.Errorf("backoff(%d) at jitter 1 = %v, want %v", tc.n, got, want)
		}
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
			writeError(w, http.StatusServiceUnavailable, "quorum unavailable")
		}
	}))
	defer srv.Close()
	enroll := func(c *Client, clk *fakeClock) (err error) {
		clk.drive(2*backoffCap, func() { _, err = c.Enroll(context.Background(), "x") })
		return err
	}

	// Retryable 503: all attempts consumed, on the backoff schedule.
	c, clk := pinnedClient(srv.URL, &http.Client{Transport: headerTransport{"X-Case", "retryable"}}, 0)
	err := enroll(c, clk)
	var ee *EnrollError
	if !errors.As(err, &ee) {
		t.Fatalf("want *EnrollError, got %T: %v", err, err)
	}
	if ee.Status != http.StatusServiceUnavailable || !ee.Retryable() {
		t.Fatalf("status %d retryable %v", ee.Status, ee.Retryable())
	}
	if !strings.Contains(ee.Body, "quorum unavailable") {
		t.Fatalf("body snippet %q", ee.Body)
	}
	if got := calls.Load(); got != maxAttempts {
		t.Fatalf("retryable error: %d attempts, want %d", got, maxAttempts)
	}
	if want := []time.Duration{backoffBase, 2 * backoffBase}; !slices.Equal(clk.fired, want) {
		t.Fatalf("backoffs %v, want %v", clk.fired, want)
	}

	// Fatal 400: a single attempt, Retryable() false.
	calls.Store(0)
	c, clk = pinnedClient(srv.URL, &http.Client{Transport: headerTransport{"X-Case", "fatal"}}, 0)
	err = enroll(c, clk)
	if !errors.As(err, &ee) || ee.Status != http.StatusBadRequest || ee.Retryable() {
		t.Fatalf("fatal case: %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("fatal error: %d attempts, want 1", got)
	}

	// Transport failure: Status 0, retryable.
	srv.Close()
	c, clk = pinnedClient(srv.URL, nil, 0)
	err = enroll(c, clk)
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

// TestOversizedReplyRejected pads a 1-of-1 deployment's /share replies with
// leading whitespace: a reply whose closing brace is byte maxBodyBytes is
// decoded and the enrollment succeeds; one more byte and the combiner
// refuses to read it, so the miss fails with 503 instead of decoding an
// unbounded body.
func TestOversizedReplyRejected(t *testing.T) {
	var size atomic.Int64 // total /share reply length to pad to
	d := startDeployment(t, 1, 1, testMaster(48), Config{RatePerSec: -1, clk: newFakeClock()},
		func(_ int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)
				body := bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")) // the reply ends at its '}'
				w.WriteHeader(rec.Code)
				w.Write(append(bytes.Repeat([]byte(" "), max(0, int(size.Load())-len(body))), body...))
			})
		})
	for _, tc := range []struct {
		id     string
		size   int
		status int
	}{
		{"at-cap", maxBodyBytes, http.StatusOK},
		{"over-cap", maxBodyBytes + 1, http.StatusServiceUnavailable},
	} {
		size.Store(int64(tc.size))
		status, key := postEnroll(t, d.comb.URL, tc.id)
		if status != tc.status {
			t.Fatalf("%d-byte share reply: status %d, want %d", tc.size, status, tc.status)
		}
		if status == http.StatusOK && !bytes.Equal(key, d.kgc.ExtractPartialPrivateKey(tc.id).Marshal()) {
			t.Fatalf("%d-byte share reply: key differs from single master", tc.size)
		}
	}
}

// TestClusterRefreshKeepsIssuedBytes runs a full proactive refresh over a
// live cluster and pins issuance on both sides of it to the single-master
// oracle: the epoch moves, the keys do not.
func TestClusterRefreshKeepsIssuedBytes(t *testing.T) {
	cl, kgc := testCluster(t, testMaster(45), ClusterConfig{})
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

// TestClusterShutdownDrainsInFlight stalls the signer path, starts an
// enrollment, and shuts the cluster down mid-flight: the request must
// complete, and the listeners must then be closed.
func TestClusterShutdownDrainsInFlight(t *testing.T) {
	const stall = 300 * time.Millisecond
	clk := newFakeClock()
	cl, kgc := testCluster(t, testMaster(46), ClusterConfig{
		SignerMiddleware: func(i int, h http.Handler) http.Handler { return stalled(clk, time.Hour, stall, h) },
		Combiner:         Config{clk: clk},
	})
	draining := make(chan struct{})
	cl.servers[len(cl.servers)-1].RegisterOnShutdown(func() { close(draining) })

	enrolled := make(chan []byte, 1)
	go func() {
		_, key := postEnroll(t, cl.URL, "in-flight")
		enrolled <- key
	}()
	clk.awaitTimer(stall) // the request is inside a signer's stall

	shutdown := make(chan error, 1)
	go func() { shutdown <- cl.Shutdown(context.Background()) }()
	<-draining // the combiner has stopped listening; only the stalls hold the drain
	var err error
	clk.drive(stall, func() { err = <-shutdown })
	if err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if !bytes.Equal(<-enrolled, kgc.ExtractPartialPrivateKey("in-flight").Marshal()) {
		t.Fatal("drained key differs from single master")
	}

	// The drained listeners refuse new work.
	if resp, err := http.Get(cl.URL + "/params"); err == nil {
		resp.Body.Close()
		t.Fatal("request accepted after shutdown")
	}
}

// TestClusterRefreshBoundedOnStalledReplica: a replica that accepts the
// refresh post and never answers costs Refresh its bounded retries — each
// post cut off by shareTimeout on the clock — not a hang. Epoch stays
// readable throughout, and the next call re-posts the pinned deltas, so the
// replica that applied the first round and the ones that did not end up on
// one polynomial.
func TestClusterRefreshBoundedOnStalledReplica(t *testing.T) {
	const outage = time.Minute
	clk := newFakeClock()
	cl, kgc := testCluster(t, testMaster(47), ClusterConfig{
		SignerMiddleware: func(i int, h http.Handler) http.Handler {
			if i == 1 { // replica 0 applies round one before replica 1 stalls it
				return stalled(clk, outage, time.Hour, h)
			}
			return h
		},
		Combiner: Config{clk: clk},
	})

	refreshed := make(chan error, 1)
	go func() {
		_, err := cl.Refresh(context.Background())
		refreshed <- err
	}()
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			wait := time.Duration(attempt) * 200 * time.Millisecond
			clk.awaitTimer(wait)
			clk.advance(wait)
		}
		clk.awaitTimer(time.Hour) // the post is inside replica 1's stall
		if cl.Epoch() != 0 {
			t.Fatal("epoch moved during a refresh that has not committed")
		}
		clk.advance(shareTimeout)
	}
	if err := <-refreshed; err == nil {
		t.Fatal("refresh over a stalled replica: want an error after the bounded retries")
	}
	if cl.Epoch() != 0 {
		t.Fatalf("epoch %d after a failed refresh, want 0", cl.Epoch())
	}
	cl.mu.Lock()
	pinned := cl.pending
	cl.mu.Unlock()
	if pinned == nil {
		t.Fatal("failed round's deltas were not pinned")
	}

	clk.advance(outage) // the replica answers again
	if epoch, err := cl.Refresh(context.Background()); err != nil || epoch != 1 || cl.Epoch() != 1 {
		t.Fatalf("refresh after the outage: epoch %d, %v", epoch, err)
	}
	// Three gathers rotate through every replica pair; a replica left on a
	// different polynomial would combine to a wrong key in two of them.
	for _, id := range []string{"after-a", "after-b", "after-c"} {
		status, key := postEnroll(t, cl.URL, id)
		if status != http.StatusOK || !bytes.Equal(key, kgc.ExtractPartialPrivateKey(id).Marshal()) {
			t.Fatalf("enroll %q after the re-posted refresh: status %d, key differs from single master", id, status)
		}
	}
}

// TestRefreshInterleavingsKeepOnePolynomial is the refresh protocol's safety
// property over a live 2-of-3 cluster on the fake clock. A seeded stream
// decides each step — let time pass (moving replicas in and out of their
// crash windows), run a Refresh, enroll a fresh identity — and the fate of
// every /refresh post: delivered, lost before the replica saw it, or applied
// with the acknowledgement lost. Whatever the interleaving of failed rounds,
// retries and re-posted deltas, after every step any two replicas at one
// epoch hold shares of one polynomial (they combine to the single master's
// key), no replica is ahead of or behind the committed epoch by more than
// the round in flight, and every enrollment that succeeds is the single
// master's, byte for byte.
func TestRefreshInterleavingsKeepOnePolynomial(t *testing.T) {
	var commits, failedRounds, enrolled int
	for seed := int64(1); seed <= 4; seed++ {
		c, f, e := refreshInterleaving(t, seed)
		commits, failedRounds, enrolled = commits+c, failedRounds+f, enrolled+e
	}
	// The property is only worth its name if the interleavings happened.
	if commits == 0 || failedRounds == 0 || enrolled == 0 {
		t.Fatalf("%d refreshes committed, %d rounds failed, %d enrollments succeeded: want some of each", commits, failedRounds, enrolled)
	}
}

// refreshInterleaving runs one seed's interleaving and returns how many
// refreshes committed, how many rounds failed and how many enrollments
// succeeded.
func refreshInterleaving(t *testing.T, seed int64) (commits, failedRounds, enrolled int) {
	const steps, horizon = 60, 2 * time.Minute
	rng := mrand.New(mrand.NewSource(seed))
	clk := newFakeClock()
	const replicas = 3
	var crashes []fault.Crash
	for i := 0; i < replicas; i++ {
		for k := 0; k < 8; k++ {
			at := time.Duration(rng.Int63n(int64(horizon)))
			crashes = append(crashes, fault.Crash{Node: i, At: at, RestartAt: at + time.Millisecond + time.Duration(rng.Int63n(int64(3*time.Second)))})
		}
	}
	in := NewInjector(crashes)
	in.clk = clk
	in.Start()

	// Refresh posts one replica at a time, so the fates are drawn in a
	// fixed order; the lock is for the race detector.
	var fateMu sync.Mutex
	fates := mrand.New(mrand.NewSource(seed ^ 0x5eed))
	signers := make([]http.Handler, replicas) // the replicas behind their faults
	cl, kgc := testCluster(t, testMaster(byte(70+seed)), ClusterConfig{
		Combiner: Config{clk: clk, RatePerSec: -1},
		SignerMiddleware: func(i int, h http.Handler) http.Handler {
			signers[i] = h
			return in.Middleware(i, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/refresh" {
					fateMu.Lock()
					fate := fates.Intn(3)
					fateMu.Unlock()
					switch fate {
					case 0: // lost on the way in
						panic(http.ErrAbortHandler)
					case 1: // applied, acknowledgement lost
						h.ServeHTTP(httptest.NewRecorder(), r)
						panic(http.ErrAbortHandler)
					}
				}
				h.ServeHTTP(w, r)
			}))
		},
	})

	for step := 0; step < steps; step++ {
		switch rng.Intn(3) {
		case 0:
			clk.advance(time.Duration(rng.Int63n(int64(2 * time.Second))))
		case 1:
			var err error
			clk.drive(shareTimeout-1, func() { _, err = cl.Refresh(context.Background()) })
			if err != nil {
				failedRounds++
			} else {
				commits++
			}
		case 2:
			id := fmt.Sprintf("seed%d-step%d", seed, step)
			if status, key := postEnroll(t, cl.URL, id); status == http.StatusOK {
				enrolled++
				if !bytes.Equal(key, kgc.ExtractPartialPrivateKey(id).Marshal()) {
					t.Fatalf("seed %d step %d: enrollment differs from single master", seed, step)
				}
			}
		}

		const probe = "probe"
		want := kgc.ExtractPartialPrivateKey(probe).Marshal()
		var shares []*threshold.KeyShare
		for _, h := range signers {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/share", strings.NewReader(`{"id":"`+probe+`"}`)))
			var sr shareResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
				t.Fatal(err)
			}
			raw, _ := hex.DecodeString(sr.Share)
			ks, err := threshold.UnmarshalKeyShare(probe, raw)
			if err != nil {
				t.Fatal(err)
			}
			if committed := cl.Epoch(); ks.Epoch != committed && ks.Epoch != committed+1 {
				t.Fatalf("seed %d step %d: replica %d at epoch %d, committed epoch %d", seed, step, ks.Index, ks.Epoch, committed)
			}
			for _, other := range shares {
				if other.Epoch != ks.Epoch {
					continue
				}
				ppk, err := threshold.Combine(probe, []*threshold.KeyShare{other, ks})
				if err != nil || !bytes.Equal(ppk.Marshal(), want) {
					t.Fatalf("seed %d step %d: replicas %d and %d hold different polynomials under epoch %d (%v)",
						seed, step, other.Index, ks.Index, ks.Epoch, err)
				}
			}
			shares = append(shares, ks)
		}
	}
	return commits, failedRounds, enrolled
}

// offSubgroupD returns a point of the twist E'(Fp2) outside G2, the D_ID a
// malicious combiner could serve: the first x = c + i with a square
// x³ + b' (b' = y² - x³ read off the generator) whose point fails the
// subgroup check. It is on the curve, so a curve-only decode accepts it.
func offSubgroupD(t *testing.T) *bn254.G2 {
	t.Helper()
	g := bn254.G2Generator()
	var b, x3 bn254.Fp2
	b.Sub(b.Square(&g.Y), x3.Mul(x3.Square(&g.X), &g.X))
	for c := uint64(1); c < 256; c++ {
		pt := &bn254.G2{X: bn254.Fp2{C0: fp.NewElement(c), C1: fp.One()}}
		var rhs bn254.Fp2
		rhs.Add(rhs.Mul(rhs.Square(&pt.X), &pt.X), &b)
		if pt.Y.Sqrt(&rhs) != nil && pt.IsOnCurve() && !pt.IsInSubgroup() {
			return pt
		}
	}
	t.Fatal("no point off the subgroup among 255 candidates")
	return nil
}

// TestMaliciousCombinerOffSubgroupKey: a combiner answers /enroll with a
// D_ID on the twist but outside G2. Enroll checks the curve only, so it
// returns the key; GenerateKeyPair and NewPrivateKeyFromSecret, the only
// consumers of D, run Validate first and refuse it. A replica that serves a
// share of that form is refused at UnmarshalKeyShare, in the combiner's
// issuer too, so Combine never multiplies one.
func TestMaliciousCombinerOffSubgroupKey(t *testing.T) {
	const id = "pump-station-9"
	off := offSubgroupD(t)
	ppk := &core.PartialPrivateKey{ID: id, D: off}
	comb := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, enrollResponse{ID: id, PartialKey: hex.EncodeToString(ppk.Marshal())})
	}))
	t.Cleanup(comb.Close)
	res, err := NewClient(comb.URL, nil).Enroll(context.Background(), id)
	if err != nil {
		t.Fatalf("Enroll refused a partial key on the curve: %v", err)
	}
	if !res.PartialKey.D.Equal(off) {
		t.Fatal("Enroll returned another point")
	}
	kgc, err := core.NewKGCFromMaster(testMaster(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.GenerateKeyPair(kgc.Params(), res.PartialKey, nil); !errors.Is(err, core.ErrPartialKeyInvalid) {
		t.Errorf("GenerateKeyPair: %v, want ErrPartialKeyInvalid", err)
	}
	if _, err := core.NewPrivateKeyFromSecret(kgc.Params(), res.PartialKey, testMaster(4)); !errors.Is(err, core.ErrPartialKeyInvalid) {
		t.Errorf("NewPrivateKeyFromSecret: %v, want ErrPartialKeyInvalid", err)
	}

	share := (&threshold.KeyShare{ID: id, Index: 1, D: off}).Marshal()
	if _, err := threshold.UnmarshalKeyShare(id, share); err == nil {
		t.Error("UnmarshalKeyShare accepted a share off the subgroup")
	}
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, shareResponse{Index: 1, Share: hex.EncodeToString(share)})
	}))
	t.Cleanup(replica.Close)
	if ks, err := newHTTPIssuer(replica.URL, nil).Issue(context.Background(), id); err == nil {
		t.Errorf("the combiner's issuer accepted share %v off the subgroup", ks)
	}
}
