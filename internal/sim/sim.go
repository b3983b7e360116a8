// Package sim is a deterministic discrete-event simulation engine: a
// virtual clock, an event queue — an implicit min-heap of value entries keyed
// on (time, sequence), so simultaneous events fire in scheduling order — and
// a seeded random source. It is the substrate the MANET simulator (radio,
// AODV, traffic) runs on, standing in for QualNet's kernel. Runs with the
// same seed and configuration are bit-for-bit reproducible.
package sim

import (
	"errors"
	"math/rand"
	"time"
)

// ErrEventBudget is the sticky error set when a simulation exceeds its
// configured MaxEvents budget (see SetMaxEvents).
var ErrEventBudget = errors.New("sim: event budget exhausted")

// interruptStride is how many events run between interrupt-hook polls; the
// hook (typically a context check) stays off the per-event hot path.
const interruptStride = 1024

// Time is virtual time elapsed since the start of the simulation.
type Time = time.Duration

// Action is a pre-allocated event callback. Scheduling one avoids the
// closure allocation Schedule pays per call: an interface holding a pooled
// pointer costs nothing to enqueue, which is what lets the radio medium's
// frame-delivery hot path run allocation-free.
type Action interface{ Fire() }

// funcAction lets a closure ride in an event as an Action; a func value is
// pointer-shaped, so the conversion allocates nothing.
type funcAction func()

func (f funcAction) Fire() { f() }

// event is one queued callback with its (at, seq) key held by value, so
// ordering the queue never reads outside the queue's own array.
type event struct {
	at  Time
	seq uint64 // tiebreaker: FIFO among simultaneous events
	run Action
}

// before is the total order events fire in.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// push adds e to the heap, sifting a hole up from the new leaf. The heap is
// binary: with keys stored by value a comparison is cheap, and the extra
// ones a wider node needs cost more than the levels it saves (DESIGN.md §5
// has the 2/3/4/8-ary measurements).
func (s *Simulator) push(e event) {
	q := append(s.queue, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
	s.queue = q
}

// pop removes and returns the earliest event, sifting the last leaf down
// from the root.
func (s *Simulator) pop() event {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	e := q[n]
	q[n] = event{} // drop the callback reference
	s.queue = q[:n]
	i := 0
	for least := 1; least < n; least = 2*i + 1 {
		if r := least + 1; r < n && q[r].before(&q[least]) {
			least = r
		}
		if !q[least].before(&e) {
			break
		}
		q[i] = q[least]
		i = least
	}
	if n > 0 {
		q[i] = e
	}
	return top
}

// Simulator owns the virtual clock and event queue. It is not safe for
// concurrent use: a simulation is a single-threaded deterministic program.
type Simulator struct {
	now       Time
	seq       uint64
	queue     []event // min-heap on (at, seq); see push and pop
	rng       *rand.Rand
	processed uint64
	maxEvents uint64
	interrupt func() error
	err       error

	// firing is 1 while an event's callback runs and 0 otherwise: the event
	// has left the queue but still occupies storage, so it counts toward
	// eventAllocs, the high-water mark of events alive at once.
	firing      int
	eventAllocs int
	peakQueue   int
}

// New creates a simulator whose random source is seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Processed reports how many events have been executed.
func (s *Simulator) Processed() uint64 { return s.processed }

// Pending reports how many events are queued.
func (s *Simulator) Pending() int { return len(s.queue) }

// PeakQueue reports the high-water mark of the event queue, which is what
// its backing array grows to.
func (s *Simulator) PeakQueue() int { return s.peakQueue }

// EventAllocs reports how many event records the run needed at once: the
// high-water mark of events alive together, queued plus the one executing.
// Storage is reused as events fire, so this is the queue's footprint rather
// than the event count: a run that processes millions of events typically
// holds only a few hundred.
func (s *Simulator) EventAllocs() uint64 { return uint64(s.eventAllocs) }

// SetMaxEvents bounds the total number of events the simulator will execute
// (0 = unlimited). When the budget is exhausted Run/RunAll stop and Err
// returns ErrEventBudget: a runaway event chain fails its run instead of
// hanging the caller.
func (s *Simulator) SetMaxEvents(n uint64) { s.maxEvents = n }

// SetInterrupt installs a hook polled every interruptStride events; a
// non-nil return stops the run and becomes Err. Wire a context in with
//
//	s.SetInterrupt(ctx.Err)
//
// so a cancelled or timed-out context aborts the simulation promptly.
func (s *Simulator) SetInterrupt(f func() error) { s.interrupt = f }

// Err reports why the simulation stopped early (budget exhaustion or an
// interrupt), or nil after a clean run. The error is sticky: once set,
// further Run/RunAll calls are no-ops.
func (s *Simulator) Err() error { return s.err }

// stopped checks the budget and interrupt hook before executing the next
// event, recording the first failure in s.err.
func (s *Simulator) stopped() bool {
	if s.err != nil {
		return true
	}
	if s.maxEvents > 0 && s.processed >= s.maxEvents {
		s.err = ErrEventBudget
		return true
	}
	if s.interrupt != nil && s.processed%interruptStride == 0 {
		if err := s.interrupt(); err != nil {
			s.err = err
			return true
		}
	}
	return false
}

// Schedule enqueues fn to run after delay d (clamped to ≥ 0). Events
// scheduled for the same instant run in scheduling order.
func (s *Simulator) Schedule(d time.Duration, fn func()) { s.enqueue(s.now+d, funcAction(fn)) }

// ScheduleAt enqueues fn to run at absolute virtual time t. Times in the
// past are clamped to now.
func (s *Simulator) ScheduleAt(t Time, fn func()) { s.enqueue(t, funcAction(fn)) }

// ScheduleActionAt enqueues a pre-allocated Action to fire at absolute
// virtual time t (clamped to now). Unlike ScheduleAt it needs no closure, so
// callers that recycle their Action values keep the schedule/fire cycle
// allocation-free.
func (s *Simulator) ScheduleActionAt(t Time, a Action) { s.enqueue(t, a) }

// ScheduleAction enqueues a pre-allocated Action to fire after delay d
// (clamped to ≥ 0).
func (s *Simulator) ScheduleAction(d time.Duration, a Action) { s.enqueue(s.now+d, a) }

// enqueue is the one way into the queue: clamp to now (which also covers a
// negative delay), stamp the FIFO tiebreaker, push, and keep the two
// high-water marks.
func (s *Simulator) enqueue(t Time, a Action) {
	s.seq++
	s.push(event{at: max(t, s.now), seq: s.seq, run: a})
	s.peakQueue = max(s.peakQueue, len(s.queue))
	s.eventAllocs = max(s.eventAllocs, len(s.queue)+s.firing)
}

// fire pops the earliest event, advances the clock to it and runs it.
func (s *Simulator) fire() {
	next := s.pop()
	s.now = next.at
	s.processed++
	s.firing = 1
	next.run.Fire()
	s.firing = 0
}

// Run executes events in timestamp order until the queue drains or the next
// event lies beyond until; the clock finishes at until (or at the last
// event, if later events were scheduled exactly at until). Run stops early
// when the event budget is exhausted or the interrupt hook fires; check Err
// to distinguish a clean finish.
func (s *Simulator) Run(until Time) {
	for len(s.queue) > 0 && s.queue[0].at <= until {
		if s.stopped() {
			return
		}
		s.fire()
	}
	if s.err == nil && s.now < until {
		s.now = until
	}
}

// RunAll executes every queued event, including events that newly-run
// events schedule. It is intended for tests with naturally finite event
// chains; a self-rescheduling event makes it run forever unless an event
// budget is set, in which case it stops with Err() == ErrEventBudget.
func (s *Simulator) RunAll() {
	for len(s.queue) > 0 && !s.stopped() {
		s.fire()
	}
}
