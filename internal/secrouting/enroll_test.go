package secrouting

import (
	"testing"
	"time"

	"mccls/internal/fault"
	"mccls/internal/mobility"
	"mccls/internal/radio"
	"mccls/internal/sim"
)

// enrollNet builds a static line topology (200 m spacing, default 250 m
// radio) with the KGC at node 0 and every other node as an enrollment
// client, and starts the protocol.
func enrollNet(t *testing.T, n int) (*sim.Simulator, *radio.Medium, *CostModelAuth, *Enrollment) {
	t.Helper()
	s := sim.New(11)
	pts := make([]mobility.Point, n)
	for i := range pts {
		pts[i] = mobility.Point{X: float64(i) * 200, Y: 0}
	}
	m := radio.New(s, &mobility.Static{Points: pts}, radio.Config{})
	auth := NewCostModelAuth()
	var clients []int
	for i := 1; i < n; i++ {
		clients = append(clients, i)
	}
	e := NewEnrollment(s, m, auth, clients, 0)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	return s, m, auth, e
}

// allEnrolled reports whether every registered client and the KGC host
// currently hold a key.
func allEnrolled(e *Enrollment) bool {
	if !e.auth.Enrolled(kgcNode) {
		return false
	}
	for c := range e.registered {
		if !e.auth.Enrolled(c) {
			return false
		}
	}
	return true
}

func TestEnrollmentHappyPath(t *testing.T) {
	s, _, auth, e := enrollNet(t, 5)
	s.Run(5 * time.Second)
	if !allEnrolled(e) {
		t.Fatal("not everyone enrolled over a healthy network")
	}
	for c := 1; c < 5; c++ {
		st := e.stats[c]
		if st.Attempts != 1 {
			t.Fatalf("node %d took %d attempts over a healthy network", c, st.Attempts)
		}
		if st.Timeouts != 0 {
			t.Fatalf("node %d timed out with the KGC up", c)
		}
		if !auth.Enrolled(c) {
			t.Fatalf("node %d not enrolled", c)
		}
	}
	if tot := e.Totals(); tot.Successes != 4 {
		t.Fatalf("Successes = %d, want 4", tot.Successes)
	}
}

// TestEnrollmentKGCOutageBackoff is the issue's acceptance test: with the
// KGC down for the first 70 s, every client retries with capped exponential
// backoff and all of them enroll after the outage ends; both the retry
// count and the backoff bound are asserted. The outage outlasts the
// uncapped schedule (1+2+4+8+16 s), so the sixth backoff would be 32 s if
// the cap did not clamp it.
func TestEnrollmentKGCOutageBackoff(t *testing.T) {
	s, m, auth, e := enrollNet(t, 5)

	// The KGC host crashes immediately: radio dark, signing key lost.
	m.SetNodeDown(0, true)
	e.OnCrash(0)
	s.Schedule(70*time.Second, func() {
		m.SetNodeDown(0, false)
		e.OnRestart(0)
	})

	s.Run(140 * time.Second)

	if !allEnrolled(e) {
		t.Fatal("outage ended but enrollment never completed")
	}
	if !auth.Enrolled(0) {
		t.Fatal("restarted KGC did not re-derive its own key")
	}
	// With timeout 0.5 s and backoff 1,2,4,8,16,16,... (jitter ≤ ×1.25),
	// attempt k ≥ 5 goes out 16.5–20.5 s after attempt k−1: the sixth
	// attempt times out by t=42 s and draws the first capped backoff, a
	// client makes 7 or 8 attempts inside the outage and one more after it,
	// and the last pre-restart backoff is ≤ cap·1.25 = 20 s, so everyone is
	// enrolled well before t=140 s.
	for c := 1; c < 5; c++ {
		st := e.stats[c]
		if st.Attempts < 7 || st.Attempts > 10 {
			t.Fatalf("node %d made %d attempts, want 7..10", c, st.Attempts)
		}
		if st.Timeouts < 6 {
			t.Fatalf("node %d saw %d timeouts during a 70 s outage", c, st.Timeouts)
		}
		if st.Successes != 1 {
			t.Fatalf("node %d Successes = %d", c, st.Successes)
		}
		maxJittered := time.Duration(float64(DefaultBackoffCap) * (1 + DefaultJitterFrac))
		if st.MaxBackoff > maxJittered {
			t.Fatalf("node %d backoff %v exceeds cap bound %v", c, st.MaxBackoff, maxJittered)
		}
		if st.MaxBackoff < DefaultBackoffCap {
			t.Fatalf("node %d backoff never grew to the cap: %v", c, st.MaxBackoff)
		}
	}
}

func TestEnrollmentClientCrashReenrolls(t *testing.T) {
	s, m, auth, e := enrollNet(t, 3)
	s.Run(5 * time.Second)
	if !auth.Enrolled(2) {
		t.Fatal("client never enrolled")
	}

	// Crash: volatile keys are gone immediately.
	m.SetNodeDown(2, true)
	e.OnCrash(2)
	if auth.Enrolled(2) {
		t.Fatal("crashed client kept its key")
	}
	s.Schedule(2*time.Second, func() {
		m.SetNodeDown(2, false)
		e.OnRestart(2)
	})

	s.Run(20 * time.Second)
	if !auth.Enrolled(2) {
		t.Fatal("restarted client never re-enrolled")
	}
	if st := e.stats[2]; st.Successes != 2 {
		t.Fatalf("Successes = %d, want 2 (enroll + re-enroll)", st.Successes)
	}
}

func TestEnrollmentKGCIgnoresUnregistered(t *testing.T) {
	// Node 3 is not on the KGC's whitelist (an attacker): it can relay the
	// flood but a request for its own identity must go unanswered.
	s := sim.New(11)
	pts := make([]mobility.Point, 4)
	for i := range pts {
		pts[i] = mobility.Point{X: float64(i) * 200, Y: 0}
	}
	m := radio.New(s, &mobility.Static{Points: pts}, radio.Config{})
	auth := NewCostModelAuth()
	e := NewEnrollment(s, m, auth, []int{1, 2}, 0)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	e.onRequest(0, EnrollRequest{Node: 3, Attempt: 0, TTL: 12})
	s.Run(5 * time.Second)
	if auth.Enrolled(3) {
		t.Fatal("unregistered identity got a key")
	}
	if !auth.Enrolled(1) || !auth.Enrolled(2) {
		t.Fatal("registered clients failed to enroll")
	}
	if e.stats[0].RepliesSent != 2 {
		t.Fatalf("KGC sent %d replies for 2 registered clients", e.stats[0].RepliesSent)
	}
}

// radioLifecycle adapts the medium's per-node radio power switch to the
// fault.Node lifecycle surface, so crash lists can drive enrollment tests
// that have no routing layer underneath. The bool returns
// deduplicate transitions exactly like aodv.Node's.
type radioLifecycle struct {
	m    *radio.Medium
	node int
}

func (r radioLifecycle) Down() bool {
	if r.m.NodeDown(r.node) {
		return false
	}
	r.m.SetNodeDown(r.node, true)
	return true
}

func (r radioLifecycle) Up(bool) bool {
	if !r.m.NodeDown(r.node) {
		return false
	}
	r.m.SetNodeDown(r.node, false)
	return true
}

// TestEnrollmentCrashOverlappingPartition composes two failure modes: node
// 3 crashes (losing its volatile keys) and restarts *inside* a partition —
// nodes 1 and 2, the only bridge, lose radio power with no crash hook —
// that cuts the whole right half of the line off from the KGC. The crashed
// node must keep backing off against the unreachable KGC and re-enroll only
// after the partition heals, while nodes that merely lost connectivity
// (their radio, not their process) keep the keys they already hold: a
// partition is not a key loss.
func TestEnrollmentCrashOverlappingPartition(t *testing.T) {
	s, m, auth, e := enrollNet(t, 5)

	nodes := make([]fault.Node, 5)
	for i := range nodes {
		nodes[i] = radioLifecycle{m: m, node: i}
	}
	crashes := []fault.Crash{{Node: 3, At: 5 * time.Second, RestartAt: 10 * time.Second}}
	fault.Apply(s, crashes, nodes, fault.Hooks{OnCrash: e.OnCrash, OnRestart: e.OnRestart})
	// Nodes 1 (x=200) and 2 (x=400) are dark during [8s, 20s), so nodes 3
	// and 4 cannot reach the KGC at node 0.
	for _, bridge := range []int{1, 2} {
		s.ScheduleAt(8*time.Second, func() { m.SetNodeDown(bridge, true) })
		s.ScheduleAt(20*time.Second, func() { m.SetNodeDown(bridge, false) })
	}

	// Mid-partition probe: node 3 is back up but must still be unenrolled,
	// while node 4 — partitioned but never powered off — keeps its key.
	var midEnrolled3, midEnrolled4 bool
	s.Schedule(15*time.Second, func() {
		midEnrolled3 = auth.Enrolled(3)
		midEnrolled4 = auth.Enrolled(4)
	})

	s.Run(40 * time.Second)

	if midEnrolled3 {
		t.Fatal("node 3 re-enrolled across the partition")
	}
	if !midEnrolled4 {
		t.Fatal("node 4 lost its key to a partition (a partition is not a crash)")
	}
	if !allEnrolled(e) {
		t.Fatal("partition healed but enrollment never completed")
	}
	st := e.stats[3]
	if st.Successes != 2 {
		t.Fatalf("node 3 Successes = %d, want 2 (initial + post-restart)", st.Successes)
	}
	if st.Timeouts < 2 {
		t.Fatalf("node 3 saw %d timeouts retrying into the partition, want ≥ 2", st.Timeouts)
	}
	if st.MaxBackoff < 2*time.Second {
		t.Fatalf("node 3 backoff never grew past the base: %v", st.MaxBackoff)
	}
	// Nodes that only lost links or radio power made exactly their one
	// initial attempt.
	for _, c := range []int{1, 2, 4} {
		if st := e.stats[c]; st.Attempts != 1 || st.Successes != 1 {
			t.Fatalf("node %d attempts/successes = %d/%d, want 1/1", c, st.Attempts, st.Successes)
		}
	}
}

// TestBackoffJitterDrawSequence pins the per-node jitter streams: with a
// fixed jitter seed, every node's backoff sequence is a deterministic
// function of (seed, node, attempt) — independent of event interleaving,
// other nodes' retries, and every shared simulation draw. The golden
// values guard the derivation (seed ^ (node+1)·goldenRatio) and the
// stretch formula min(cap, base·2^k)·(1 + frac·U).
func TestBackoffJitterDrawSequence(t *testing.T) {
	mk := func() *Enrollment {
		_, _, _, e := func() (*sim.Simulator, *radio.Medium, *CostModelAuth, *Enrollment) {
			s := sim.New(99)
			pts := []mobility.Point{{X: 0}, {X: 200}, {X: 400}}
			m := radio.New(s, &mobility.Static{Points: pts}, radio.Config{})
			auth := NewCostModelAuth()
			e := NewEnrollment(s, m, auth, []int{1, 2}, 42)
			return s, m, auth, e
		}()
		return e
	}
	e := mk()
	var got []time.Duration
	for k := 0; k < 4; k++ {
		got = append(got, e.backoff(1, k))
	}
	got = append(got, e.backoff(2, 0), e.backoff(2, 1))
	want := []time.Duration{
		1055087874, // node 1, k=0: 1 s · (1 + 0.25·U₀)
		2362168715, // node 1, k=1: 2 s stretched
		4544125767, // node 1, k=2: 4 s stretched
		8449143217, // node 1, k=3: 8 s stretched
		1119007155, // node 2, k=0: independent stream
		2459334172, // node 2, k=1
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw %d = %d, want %d (jitter stream derivation changed)", i, got[i], want[i])
		}
	}

	// Past base·2^4 the cap clamps every draw into [cap, cap·(1+frac)], the
	// shift-overflow range (k ≥ 62) included.
	for _, k := range []int{5, 40, 62, 100} {
		lo, hi := DefaultBackoffCap, time.Duration(float64(DefaultBackoffCap)*(1+DefaultJitterFrac))
		if d := e.backoff(1, k); d < lo || d > hi {
			t.Fatalf("backoff(k=%d) = %v, want within [%v, %v]", k, d, lo, hi)
		}
	}

	// A reconstructed enrollment reproduces the exact sequence: draws
	// depend only on (seed, node, attempt index within the stream).
	e2 := mk()
	var again []time.Duration
	for k := 0; k < 4; k++ {
		again = append(again, e2.backoff(1, k))
	}
	again = append(again, e2.backoff(2, 0), e2.backoff(2, 1))
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("draw %d not reproducible: %v vs %v", i, got[i], again[i])
		}
	}
}
