package kgcd

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// newTestInjector is a started injector on a fake clock at elapsed time 0.
func newTestInjector(s FaultSchedule) (*Injector, *fakeClock) {
	in, clk := NewInjector(s), newFakeClock()
	in.clk = clk
	in.Start()
	return in, clk
}

func TestVerdictWindows(t *testing.T) {
	in, clk := newTestInjector(FaultSchedule{
		Latency: []Latency{
			{Target: "a", From: 0, To: 10 * time.Second, Delay: 5 * time.Millisecond},
			{Target: "", From: 5 * time.Second, To: 10 * time.Second, Delay: 7 * time.Millisecond},
		},
		Crashes: []Crash{
			{Target: "b", At: 2 * time.Second, RestartAt: 4 * time.Second},
			{Target: "", At: 8 * time.Second, RestartAt: 9 * time.Second},
		},
	})
	for _, tc := range []struct {
		at     time.Duration // cases are in time order: the clock only moves forward
		target string
		delay  time.Duration
		drop   bool
	}{
		{0, "a", 5 * time.Millisecond, false},
		{0, "b", 0, false},
		{2 * time.Second, "b", 0, true},
		{2 * time.Second, "a", 5 * time.Millisecond, false},  // someone else's crash
		{4 * time.Second, "b", 0, false},                     // [At, RestartAt)
		{5 * time.Second, "a", 12 * time.Millisecond, false}, // latency windows sum
		{5 * time.Second, "b", 7 * time.Millisecond, false},
		{8 * time.Second, "a", 12 * time.Millisecond, true}, // wildcard crash; latency composes with it
		{9 * time.Second, "a", 12 * time.Millisecond, false},
		{10 * time.Second, "a", 0, false}, // [From, To)
	} {
		clk.advance(tc.at - clk.Now().Sub(in.start))
		if delay, drop := in.verdict(tc.target); delay != tc.delay || drop != tc.drop {
			t.Errorf("verdict(%q) at %v = (%v, %v), want (%v, %v)", tc.target, tc.at, delay, drop, tc.delay, tc.drop)
		}
	}
}

func TestPermanentCrashAndUnstarted(t *testing.T) {
	in, clk := NewInjector(FaultSchedule{Crashes: []Crash{{Target: "x", At: time.Second}}}), newFakeClock()
	in.clk = clk
	// Before Start: no faults at all, however late it is.
	clk.advance(time.Minute)
	if _, drop := in.verdict("x"); drop {
		t.Fatal("unstarted injector injected a fault")
	}
	in.Start()
	if _, drop := in.verdict("x"); drop {
		t.Fatal("crashed before its At")
	}
	clk.advance(time.Hour)
	if _, drop := in.verdict("x"); !drop {
		t.Fatal("permanent crash lifted")
	}
}

func TestRotatingCrashes(t *testing.T) {
	targets := []string{"r0", "r1", "r2"}
	crashes := RotatingCrashes(targets, 5*time.Second, 2*time.Second, 15*time.Second)
	if len(crashes) != 3 {
		t.Fatalf("got %d crashes, want 3", len(crashes))
	}
	for k, c := range crashes {
		if c.Target != targets[k%3] {
			t.Errorf("crash %d targets %s, want %s", k, c.Target, targets[k%3])
		}
		if c.At != time.Duration(k)*5*time.Second || c.RestartAt != c.At+2*time.Second {
			t.Errorf("crash %d window [%v, %v)", k, c.At, c.RestartAt)
		}
	}
	// At any instant at most one target is dark, and each one is in its turn.
	in, clk := newTestInjector(FaultSchedule{Crashes: crashes})
	everDark := map[string]bool{}
	for e := time.Duration(0); e < 15*time.Second; e += 250 * time.Millisecond {
		dark := 0
		for _, tgt := range targets {
			if _, drop := in.verdict(tgt); drop {
				dark++
				everDark[tgt] = true
			}
		}
		if dark > 1 {
			t.Fatalf("%d targets dark at %v", dark, e)
		}
		clk.advance(250 * time.Millisecond)
	}
	if len(everDark) != len(targets) {
		t.Fatalf("targets killed over the horizon: %v, want all of %v", everDark, targets)
	}
	if RotatingCrashes(nil, time.Second, time.Second, time.Minute) != nil {
		t.Error("empty target list: want nil")
	}
}

func TestMiddlewareInjection(t *testing.T) {
	const stall = 40 * time.Millisecond
	var reached atomic.Int64
	in, clk := newTestInjector(FaultSchedule{
		Crashes: []Crash{{Target: "replica-0", At: 0, RestartAt: time.Second}},
		Latency: []Latency{{Target: "replica-0", From: 2 * time.Second, To: 3 * time.Second, Delay: stall}},
	})
	srv := httptest.NewServer(in.Middleware("replica-0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reached.Add(1)
		io.WriteString(w, "ok")
	})))
	defer srv.Close()
	get := func() (status int, err error) {
		resp, err := http.Get(srv.URL)
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	// Crash window: the connection is aborted — a transport-level error,
	// not an HTTP status.
	if _, err := get(); err == nil {
		t.Fatal("crash window: want a connection error")
	}
	if reached.Load() != 0 {
		t.Fatal("crashed handler was reached")
	}

	// After restart: normal service, no timer involved.
	clk.advance(time.Second)
	if status, err := get(); err != nil || status != 200 || reached.Load() != 1 {
		t.Fatalf("clean window: status %d, %v, reached %d", status, err, reached.Load())
	}

	// Latency window: the handler is held until the stall has elapsed on
	// the clock, then serves normally.
	clk.advance(time.Second)
	served := make(chan int, 1)
	go func() {
		status, _ := get()
		served <- status
	}()
	clk.awaitTimer(stall)
	if reached.Load() != 1 {
		t.Fatal("stalled handler was reached before the stall elapsed")
	}
	clk.advance(stall)
	if status := <-served; status != 200 || reached.Load() != 2 {
		t.Fatalf("latency window: status %d, reached %d", status, reached.Load())
	}
}
