package routing

import (
	"testing"
	"time"

	"mccls/internal/mobility"
	"mccls/internal/radio"
	"mccls/internal/sim"
)

// countingAuth counts Verify calls; "ok" is the only tag it accepts.
type countingAuth struct {
	verifies int
}

func (c *countingAuth) Sign(int, []byte) ([]byte, time.Duration, error) {
	return []byte("ok"), 0, nil
}

func (c *countingAuth) Verify(_ int, _, tag []byte) (bool, time.Duration) {
	c.verifies++
	return string(tag) == "ok", time.Millisecond
}

func (c *countingAuth) Overhead() int { return 0 }

// note is a control packet with nothing in it but its hop header.
type note struct{ HopAuth }

func (n *note) AppendEncode(dst []byte) []byte { return append(dst, byte(n.Sender)) }

// heard builds the packet a receiver gets: claimed sender and tag.
func heard(sender int, tag string) *note {
	return &note{HopAuth{Sender: sender, Auth: []byte(tag)}}
}

// pair builds two agents in radio range of each other; processed counts the
// packets either hands to its protocol.
func pair(auth Authenticator) (s *sim.Simulator, as []*Agent, processed *int) {
	s = sim.New(1)
	m := radio.New(s, &mobility.Static{Points: []mobility.Point{{X: 0}, {X: 100}}}, radio.Config{})
	processed = new(int)
	for id := 0; id < 2; id++ {
		as = append(as, &Agent{ID: id, Sim: s, Medium: m, Auth: auth, Process: func(int, Packet) { *processed++ }})
	}
	return s, as, processed
}

func TestReceiveRejectsSpoofedSenderBeforeVerify(t *testing.T) {
	auth := &countingAuth{}
	s, as, processed := pair(auth)
	// Heard from neighbour 1, but the packet claims node 0 transmitted it.
	as[0].Receive(1, heard(0, "ok"))
	s.RunAll()
	if auth.verifies != 0 {
		t.Fatalf("Verify called %d times on a spoofed sender", auth.verifies)
	}
	if *processed != 0 || as[0].Stats.AuthRejected != 1 {
		t.Fatalf("processed=%d rejected=%d, want 0/1", *processed, as[0].Stats.AuthRejected)
	}

	// An honest sender with a bad tag is rejected after the verify delay.
	as[0].Receive(1, heard(1, "forged"))
	s.RunAll()
	if auth.verifies != 1 || *processed != 0 || as[0].Stats.AuthRejected != 2 {
		t.Fatalf("verifies=%d processed=%d rejected=%d, want 1/0/2",
			auth.verifies, *processed, as[0].Stats.AuthRejected)
	}
}

func TestSkipVerifyBypassesSpoofCheckAndVerify(t *testing.T) {
	auth := &countingAuth{}
	_, as, processed := pair(auth)
	as[0].SkipVerify = true
	as[0].Receive(1, heard(0, "forged"))
	if *processed != 1 || auth.verifies != 0 || as[0].Stats.AuthRejected != 0 {
		t.Fatalf("processed=%d verifies=%d rejected=%d, want 1/0/0",
			*processed, auth.verifies, as[0].Stats.AuthRejected)
	}
}

func TestTimerArmedBeforeCrashNeverFires(t *testing.T) {
	s, as, _ := pair(NullAuth{})
	a := as[0]
	fired := 0
	a.Schedule(10*time.Millisecond, func() { fired++ }) // due while down
	a.Schedule(time.Second, func() { fired++ })         // due after the restart
	if !a.Crash() || a.Crash() {
		t.Fatal("Crash must report exactly one transition")
	}
	s.Run(100 * time.Millisecond)
	if !a.Restart() || a.Restart() {
		t.Fatal("Restart must report exactly one transition")
	}
	a.Schedule(time.Second, func() { fired += 10 }) // armed in the new epoch
	s.RunAll()
	if fired != 10 {
		t.Fatalf("fired = %d, want only the post-restart timer (10)", fired)
	}
	if a.Stats.Crashes != 1 || a.Stats.Restarts != 1 {
		t.Fatalf("crashes=%d restarts=%d, want 1/1", a.Stats.Crashes, a.Stats.Restarts)
	}
}

// TestReceptionStraddlingCrashIsDroppedSilently: a packet whose verification
// delay spans a crash is lost with the process, whatever the verdict would
// have been — neither processed nor counted as rejected — even when the node
// is back up by the time the delay ends.
func TestReceptionStraddlingCrashIsDroppedSilently(t *testing.T) {
	for _, tag := range []string{"ok", "forged"} {
		auth := &countingAuth{}
		s, as, processed := pair(auth)
		a := as[0]
		a.Receive(1, heard(1, tag)) // verdict due at 1 ms
		a.Crash()
		s.Run(500 * time.Microsecond)
		a.Restart()
		s.RunAll()
		if auth.verifies != 1 || *processed != 0 || a.Stats.AuthRejected != 0 {
			t.Fatalf("tag %q: verifies=%d processed=%d rejected=%d, want 1/0/0",
				tag, auth.verifies, *processed, a.Stats.AuthRejected)
		}
		// The same packets in the new epoch get their verdict.
		a.Receive(1, heard(1, tag))
		s.RunAll()
		if got := uint64(*processed) + a.Stats.AuthRejected; got != 1 || (*processed == 1) != (tag == "ok") {
			t.Fatalf("tag %q after restart: processed=%d rejected=%d", tag, *processed, a.Stats.AuthRejected)
		}
	}
}

// TestRecycledTimerForgetsItsPreCrashJob: the record of a timer that was
// armed before a crash goes back to the free list when it (silently) fires;
// the next job armed into that record must run alone.
func TestRecycledTimerForgetsItsPreCrashJob(t *testing.T) {
	s, as, _ := pair(NullAuth{})
	a := as[0]
	var ran []string
	a.Schedule(time.Millisecond, func() { ran = append(ran, "stale") })
	a.Crash()
	a.Restart()
	s.Run(2 * time.Millisecond) // the stale timer fires into the new epoch and is dropped
	if len(a.free) != 1 || a.free[0].fn != nil {
		t.Fatalf("free list %v, want the one fired record with its callback cleared", a.free)
	}
	stale := a.free[0]
	a.Schedule(time.Millisecond, func() { ran = append(ran, "fresh") })
	if len(a.free) != 0 {
		t.Fatal("re-arming did not reuse the recycled record")
	}
	s.RunAll()
	if len(ran) != 1 || ran[0] != "fresh" || a.free[0] != stale {
		t.Fatalf("ran %v, want only the fresh callback, through the same record", ran)
	}
}

// TestRearmAtTheInstantOfRestartFiresOnce: crash, restart and re-arm with
// no virtual time passing in between.
func TestRearmAtTheInstantOfRestartFiresOnce(t *testing.T) {
	s, as, _ := pair(NullAuth{})
	a := as[0]
	fired := 0
	a.Schedule(time.Millisecond, func() { fired += 100 }) // same due time as the re-armed one
	a.Crash()
	a.Restart()
	a.Schedule(time.Millisecond, func() { fired++ })
	s.RunAll()
	if fired != 1 {
		t.Fatalf("fired = %d, want exactly the re-armed timer (1)", fired)
	}
}

// TestAgentTimersSteadyStateZeroAlloc pins the pooled timer: arming and
// firing a callback, and a verified reception, allocate nothing once the
// agent's free list and the simulator's queue are warm.
func TestAgentTimersSteadyStateZeroAlloc(t *testing.T) {
	s, as, processed := pair(&countingAuth{})
	a := as[0]
	fn := func() {}
	pkt := heard(1, "ok")
	cycle := func() {
		a.Schedule(time.Millisecond, fn)
		a.Receive(1, pkt)
		s.RunAll()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("arm + fire allocates %.1f/op in steady state, want 0", allocs)
	}
	if *processed != 102 {
		t.Fatalf("processed %d receptions, want 102", *processed)
	}
}

// discoveryFixture counts issued requests; every attempt waits one second.
func discoveryFixture(bufferCap, retries int) (*sim.Simulator, *Agent, *Discovery[int], *[]int) {
	s, as, _ := pair(NullAuth{})
	var attempts []int
	d := NewDiscovery[int](as[0], bufferCap, retries, func(_, attempt int) time.Duration {
		attempts = append(attempts, attempt)
		return time.Second
	})
	return s, as[0], d, &attempts
}

func TestDiscoveryRetriesThenDropsBuffer(t *testing.T) {
	s, a, d, attempts := discoveryFixture(8, 2)
	for pkt := 0; pkt < 3; pkt++ {
		d.Enqueue(9, pkt)
		d.Start(9) // joins the discovery in flight after the first
	}
	s.RunAll()
	if len(*attempts) != 3 || (*attempts)[0] != 1 || (*attempts)[2] != 3 {
		t.Fatalf("issued attempts %v, want [1 2 3] (retries+1)", *attempts)
	}
	if a.Stats.RREQInitiated != 1 || a.Stats.RREQRetried != 2 || a.Stats.DropNoRoute != 3 {
		t.Fatalf("initiated=%d retried=%d noRoute=%d, want 1/2/3",
			a.Stats.RREQInitiated, a.Stats.RREQRetried, a.Stats.DropNoRoute)
	}
	if q := d.Flush(9); len(q) != 0 {
		t.Fatalf("buffer still holds %v after the discovery failed", q)
	}
}

func TestDiscoveryCompleteDisarmsTimer(t *testing.T) {
	s, a, d, attempts := discoveryFixture(8, 2)
	d.Enqueue(9, 42)
	d.Start(9)
	s.Run(500 * time.Millisecond)
	d.Complete(9)
	if q := d.Flush(9); len(q) != 1 || q[0] != 42 {
		t.Fatalf("Flush = %v, want [42]", q)
	}
	s.RunAll()
	if len(*attempts) != 1 || a.Stats.RREQRetried != 0 || a.Stats.DropNoRoute != 0 {
		t.Fatalf("attempts=%v retried=%d noRoute=%d after Complete, want one attempt and no drops",
			*attempts, a.Stats.RREQRetried, a.Stats.DropNoRoute)
	}
}

// TestStaleDiscoveryTimerRetriesEarly pins ROADMAP item 2(b) as it stands,
// not as it should be: a timeout matches its attempt by gen alone and a new
// attempt starts again at gen 0, so the timer of a completed discovery fires
// the retry of the next discovery for the same destination early.
func TestStaleDiscoveryTimerRetriesEarly(t *testing.T) {
	s, a, d, attempts := discoveryFixture(8, 2)
	d.Start(9) // attempt 1, times out at 1 s
	s.Run(500 * time.Millisecond)
	d.Complete(9)
	s.Run(600 * time.Millisecond)
	d.Start(9) // a new attempt 1, times out at 1.6 s
	s.Run(1200 * time.Millisecond)
	// Item 2(b): the 1 s timer took the new attempt for its own and retried
	// it 0.4 s early. The model-epoch-2 fix (the timer also requires
	// d.pending[dst] == cur) flips this to 0.
	if a.Stats.RREQRetried != 1 {
		t.Fatalf("RREQRetried = %d by 1.2 s, want the stale timer's early retry (1)", a.Stats.RREQRetried)
	}
	if a.Stats.RREQInitiated != 2 || (*attempts)[1] != 1 {
		t.Fatalf("initiated=%d attempts=%v, want two discoveries each starting at attempt 1",
			a.Stats.RREQInitiated, *attempts)
	}
}

func TestEnqueuePastCapCountsOverflow(t *testing.T) {
	_, a, d, _ := discoveryFixture(2, 2)
	for pkt := 0; pkt < 5; pkt++ {
		d.Enqueue(9, pkt)
	}
	d.Enqueue(8, 0) // the cap is per destination
	if a.Stats.DropBufferOverflow != 3 {
		t.Fatalf("DropBufferOverflow = %d, want 3", a.Stats.DropBufferOverflow)
	}
	if q := d.Flush(9); len(q) != 2 {
		t.Fatalf("buffered %v, want the first two", q)
	}
}
