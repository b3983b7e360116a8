package kgcd

import (
	"net/http"
	"sync"
	"time"
)

// Latency adds Delay to every matching request during [From, To).
// Overlapping latency windows sum.
type Latency struct {
	Target   string // "" matches every target
	From, To time.Duration
	Delay    time.Duration
}

// Crash takes a target down at At and back up at RestartAt; requests in
// the window are aborted without an HTTP response. RestartAt ≤ At is a
// permanent crash (mirroring fault.Crash).
type Crash struct {
	Target    string // "" matches every target
	At        time.Duration
	RestartAt time.Duration
}

// FaultSchedule is a complete HTTP fault plan for the replicas: plain data,
// fully decided before the run starts — the HTTP counterpart of
// internal/fault's simulator schedule, polled per request against the
// package clock instead of pushed onto an event queue. On the wall clock a
// chaos drill follows it in real time; on the tests' fake clock any instant
// of it is replayed exactly.
type FaultSchedule struct {
	Latency []Latency
	Crashes []Crash
}

// RotatingCrashes builds the canonical chaos rotation: the k-th kill takes
// down targets[k mod len] during [k·period, k·period+downFor), for every
// period boundary inside the horizon. With downFor < period exactly one
// target is dark at any instant — faults stay below quorum loss for any
// t ≤ n−1 deployment.
func RotatingCrashes(targets []string, period, downFor, horizon time.Duration) []Crash {
	if len(targets) == 0 || period <= 0 || downFor <= 0 {
		return nil
	}
	var out []Crash
	for k := 0; time.Duration(k)*period < horizon; k++ {
		at := time.Duration(k) * period
		out = append(out, Crash{Target: targets[k%len(targets)], At: at, RestartAt: at + downFor})
	}
	return out
}

// Injector binds a FaultSchedule to a start instant: no faults before Start is
// called; after it, windows are evaluated against the elapsed time.
type Injector struct {
	sched FaultSchedule
	clk   clock

	mu      sync.Mutex
	started bool
	start   time.Time
}

// NewInjector creates an injector over the schedule.
func NewInjector(sched FaultSchedule) *Injector {
	return &Injector{sched: sched, clk: wallClock{}}
}

// Start pins the schedule's t=0 to the current instant.
func (in *Injector) Start() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.started, in.start = true, in.clk.Now()
}

// verdict evaluates the schedule for one request to target at the current
// instant: the summed latency to apply first, and whether a crash window
// then drops the request.
func (in *Injector) verdict(target string) (delay time.Duration, drop bool) {
	in.mu.Lock()
	started, start := in.started, in.start
	in.mu.Unlock()
	if !started {
		return 0, false
	}
	e := in.clk.Now().Sub(start)
	match := func(rule string) bool { return rule == "" || rule == target }
	for _, l := range in.sched.Latency {
		if match(l.Target) && e >= l.From && e < l.To {
			delay += l.Delay
		}
	}
	for _, c := range in.sched.Crashes {
		if match(c.Target) && e >= c.At && (c.RestartAt <= c.At || e < c.RestartAt) {
			return delay, true
		}
	}
	return delay, false
}

// Middleware wraps a replica's handler with injection for the named target.
// A latency window stalls the handler; a crash window aborts the connection
// without an HTTP response — the client sees a mid-request network failure,
// which is what a killed replica looks like.
func (in *Injector) Middleware(target string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		delay, drop := in.verdict(target)
		if delay > 0 && sleep(r.Context(), in.clk, delay) != nil {
			drop = true // the peer gave up during the stall
		}
		if drop {
			panic(http.ErrAbortHandler) // net/http aborts the connection
		}
		h.ServeHTTP(w, r)
	})
}
