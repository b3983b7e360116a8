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

// pair builds two agents in radio range of each other.
func pair(auth Authenticator) (*sim.Simulator, []*Agent) {
	s := sim.New(1)
	m := radio.New(s, &mobility.Static{Points: []mobility.Point{{X: 0}, {X: 100}}}, radio.Config{})
	return s, []*Agent{
		{ID: 0, Sim: s, Medium: m, Auth: auth},
		{ID: 1, Sim: s, Medium: m, Auth: auth},
	}
}

func TestReceiveRejectsSpoofedSenderBeforeVerify(t *testing.T) {
	auth := &countingAuth{}
	s, as := pair(auth)
	processed := 0
	// Heard from neighbour 1, but the packet claims node 0 transmitted it.
	as[0].Receive(1, 0, nil, []byte("ok"), func() { processed++ })
	s.RunAll()
	if auth.verifies != 0 {
		t.Fatalf("Verify called %d times on a spoofed sender", auth.verifies)
	}
	if processed != 0 || as[0].Stats.AuthRejected != 1 {
		t.Fatalf("processed=%d rejected=%d, want 0/1", processed, as[0].Stats.AuthRejected)
	}

	// An honest sender with a bad tag is rejected after the verify delay.
	as[0].Receive(1, 1, nil, []byte("forged"), func() { processed++ })
	s.RunAll()
	if auth.verifies != 1 || processed != 0 || as[0].Stats.AuthRejected != 2 {
		t.Fatalf("verifies=%d processed=%d rejected=%d, want 1/0/2",
			auth.verifies, processed, as[0].Stats.AuthRejected)
	}
}

func TestSkipVerifyBypassesSpoofCheckAndVerify(t *testing.T) {
	auth := &countingAuth{}
	_, as := pair(auth)
	as[0].SkipVerify = true
	processed := 0
	as[0].Receive(1, 0, nil, []byte("forged"), func() { processed++ })
	if processed != 1 || auth.verifies != 0 || as[0].Stats.AuthRejected != 0 {
		t.Fatalf("processed=%d verifies=%d rejected=%d, want 1/0/0",
			processed, auth.verifies, as[0].Stats.AuthRejected)
	}
}

func TestTimerArmedBeforeCrashNeverFires(t *testing.T) {
	s, as := pair(NullAuth{})
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

// discoveryFixture counts issued requests; every attempt waits one second.
func discoveryFixture(bufferCap, retries int) (*sim.Simulator, *Agent, *Discovery[int], *[]int) {
	s, as := pair(NullAuth{})
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
