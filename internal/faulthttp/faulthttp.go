// Package faulthttp injects deterministic faults into HTTP paths: added
// latency, dropped requests, 5xx bursts, partitions and replica
// crash/restart cycles. It is the real-network counterpart of
// internal/fault — the same Schedule idiom (plain data, fully decided
// before the run starts) applied to the kgcd enrollment plane instead of
// the simulated radio. A Schedule is bound to a start instant by an
// Injector; the Transport wraps an http.RoundTripper (client-side faults:
// what a combiner sees of its replicas) and Middleware wraps an
// http.Handler (server-side faults: what a replica's peers see of it).
// With the injectable clock a test replays any point of the schedule
// exactly; with the real clock a chaos run follows it in real time.
package faulthttp

import (
	"fmt"
	"io"
	"net/http"
	"strings"
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

// Drop fails every matching request during [From, To) with a transport
// error — the peer is unreachable, no HTTP response at all.
type Drop struct {
	Target   string
	From, To time.Duration
}

// Burst answers every matching request with Status (a 5xx, typically)
// during [From, To) — the peer is up but failing.
type Burst struct {
	Target   string
	From, To time.Duration
	Status   int
}

// Partition makes every listed target unreachable during [From, To) —
// a Drop spanning a set of peers at once.
type Partition struct {
	Targets  []string
	From, To time.Duration
}

// Crash takes a target down at At and back up at RestartAt; requests in
// the window fail like Drop. RestartAt ≤ At is a permanent crash
// (mirroring fault.Crash).
type Crash struct {
	Target    string
	At        time.Duration
	RestartAt time.Duration
}

// Schedule is a complete HTTP fault plan, decided before the run starts.
type Schedule struct {
	Latency    []Latency
	Drops      []Drop
	Bursts     []Burst
	Partitions []Partition
	Crashes    []Crash
}

// Empty reports whether the schedule injects no faults at all.
func (s Schedule) Empty() bool {
	return len(s.Latency) == 0 && len(s.Drops) == 0 && len(s.Bursts) == 0 &&
		len(s.Partitions) == 0 && len(s.Crashes) == 0
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
		out = append(out, Crash{
			Target:    targets[k%len(targets)],
			At:        at,
			RestartAt: at + downFor,
		})
	}
	return out
}

// Verdict is the fault outcome for one request: apply Delay, then either
// drop the request, synthesize Status, or let it through.
type Verdict struct {
	Delay  time.Duration
	Drop   bool
	Status int
}

// Injector binds a Schedule to a start instant. Zero faults before Start
// is called; after Start, windows are evaluated against the elapsed time.
type Injector struct {
	sched Schedule
	now   func() time.Time

	mu      sync.Mutex
	started bool
	start   time.Time
}

// New creates an injector over the schedule, using the real clock.
func New(sched Schedule) *Injector {
	return &Injector{sched: sched, now: time.Now}
}

// SetClock substitutes the time source (tests). Call before Start.
func (in *Injector) SetClock(now func() time.Time) { in.now = now }

// Start pins the schedule's t=0 to the current instant. Calling Start
// again rebases the schedule (a test replaying several windows).
func (in *Injector) Start() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.started = true
	in.start = in.now()
}

func match(rule, target string) bool { return rule == "" || rule == target }

func inWindow(e, from, to time.Duration) bool { return e >= from && e < to }

// Verdict evaluates the schedule for one request against the named target
// at the current instant. Drops (and partitions and crash windows) win
// over bursts; latency composes with either.
func (in *Injector) Verdict(target string) Verdict {
	in.mu.Lock()
	started, start := in.started, in.start
	in.mu.Unlock()
	if !started {
		return Verdict{}
	}
	e := in.now().Sub(start)

	var v Verdict
	for _, l := range in.sched.Latency {
		if match(l.Target, target) && inWindow(e, l.From, l.To) {
			v.Delay += l.Delay
		}
	}
	for _, d := range in.sched.Drops {
		if match(d.Target, target) && inWindow(e, d.From, d.To) {
			v.Drop = true
			return v
		}
	}
	for _, p := range in.sched.Partitions {
		if inWindow(e, p.From, p.To) {
			for _, t := range p.Targets {
				if match(t, target) {
					v.Drop = true
					return v
				}
			}
		}
	}
	for _, c := range in.sched.Crashes {
		if match(c.Target, target) && e >= c.At && (c.RestartAt <= c.At || e < c.RestartAt) {
			v.Drop = true
			return v
		}
	}
	for _, b := range in.sched.Bursts {
		if match(b.Target, target) && inWindow(e, b.From, b.To) {
			v.Status = b.Status
			return v
		}
	}
	return v
}

// DropError is the transport error surfaced for injected drops, so tests
// and callers can tell an injected fault from a real network error.
type DropError struct{ Target string }

func (e *DropError) Error() string {
	return fmt.Sprintf("faulthttp: injected drop (target %q)", e.Target)
}

// Transport is a fault-injecting http.RoundTripper: the client-side view
// of a faulty network. Requests are matched to schedule targets by host
// (override with Target).
type Transport struct {
	Injector *Injector
	// Inner handles requests that survive injection; nil uses
	// http.DefaultTransport.
	Inner http.RoundTripper
	// Target maps a request to a schedule target; nil uses req.URL.Host.
	Target func(*http.Request) string
}

func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	target := req.URL.Host
	if t.Target != nil {
		target = t.Target(req)
	}
	v := t.Injector.Verdict(target)
	if v.Delay > 0 {
		if err := sleep(req.Context().Done(), v.Delay); err != nil {
			return nil, err
		}
	}
	if v.Drop {
		return nil, &DropError{Target: target}
	}
	if v.Status != 0 {
		return synthResponse(req, v.Status), nil
	}
	inner := t.Inner
	if inner == nil {
		inner = http.DefaultTransport
	}
	return inner.RoundTrip(req)
}

// synthResponse fabricates a minimal response for an injected status, as
// if the peer's front-end answered without reaching the application.
func synthResponse(req *http.Request, status int) *http.Response {
	body := fmt.Sprintf("faulthttp: injected status %d", status)
	return &http.Response{
		StatusCode:    status,
		Status:        fmt.Sprintf("%d %s", status, http.StatusText(status)),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"text/plain"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// Middleware wraps a handler with server-side injection for the named
// target. Drop (and crash/partition) windows abort the connection without
// an HTTP response — the client sees a mid-request network failure, which
// is what a killed replica looks like; burst windows answer with the
// injected status; latency windows stall the handler.
func Middleware(in *Injector, target string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		v := in.Verdict(target)
		if v.Delay > 0 {
			if err := sleep(r.Context().Done(), v.Delay); err != nil {
				panic(http.ErrAbortHandler)
			}
		}
		if v.Drop {
			panic(http.ErrAbortHandler) // net/http aborts the connection
		}
		if v.Status != 0 {
			http.Error(w, fmt.Sprintf("faulthttp: injected status %d", v.Status), v.Status)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// sleep waits for d or for done, whichever comes first.
func sleep(done <-chan struct{}, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-done:
		return fmt.Errorf("faulthttp: canceled during injected latency")
	}
}
