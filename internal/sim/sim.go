// Package sim is a deterministic discrete-event simulation engine: a
// virtual clock, an event queue and a seeded random source. It is the
// substrate the MANET simulator (radio, AODV, traffic) runs on, standing in
// for QualNet's kernel. Runs with the same seed and configuration are
// bit-for-bit reproducible.
//
// Every event is keyed on (time, sequence) when scheduled, so simultaneous
// events fire in scheduling order. The queue is a min-heap of sources, each
// under its next event's key: a single event, a constant-delay lane
// (ScheduleLane) or a fan-out's run (StageAt). Lanes fill in key order and a
// run is sorted once, so ordered work costs the heap one entry, not one per
// event, and fires in exactly the order a heap of single events gives.
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

// Reuse pops a record off the free list *free, or allocates a zero one if it
// is empty: how pooled Actions are recycled.
func Reuse[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return new(T)
	}
	t := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return t
}

// event is one queued callback with its (at, seq) key held by value, so
// ordering the queue never reads outside the queue's own array. In a heap
// entry that stands for a source, run is the *source and the key its head's.
type event struct {
	at  Time
	seq uint64 // tiebreaker: FIFO among simultaneous events
	run Action
}

// before is the total order events fire in.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// maxLanes bounds the constant-delay lanes.
const maxLanes = 4

// source is the FIFO of events, in firing order, behind one heap entry: a
// lane, which stays when it drains, or a fan-out's run, which is pooled.
type source struct {
	ev    []event // ev[head:] are queued
	head  int
	lane  bool
	delay time.Duration // a lane's
}

// Fire is never called: fire takes a source's head event instead.
func (*source) Fire() { panic("sim: source fired") }

// push adds e to the heap, sifting a hole up from the new leaf. The heap is
// binary: with keys stored by value a comparison is cheap, and the extra
// ones a wider node needs cost more than the levels it saves (DESIGN.md §5
// has the 2/3/4/8-ary measurements). An entry is a source under its head's
// key; every source is in key order, so the least head is the earliest event.
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

// pop removes the root, sifting the last leaf down in its place.
func (s *Simulator) pop() {
	q, n := s.queue, len(s.queue)-1
	s.down(q[n], n)
	q[n] = event{} // drop the callback reference
	s.queue = q[:n]
}

// down sifts e down from the root of the heap's first n entries.
func (s *Simulator) down(e event, n int) {
	q := s.queue
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
	q[i] = e
}

// take removes the head of src, the root, and returns its action: src stays
// at the root under its next head's key — one sift-down, no push — or,
// drained, leaves the heap.
func (s *Simulator) take(src *source) Action {
	run := src.ev[src.head].run
	src.ev[src.head].run = nil
	if src.head++; src.head < len(src.ev) {
		next := &src.ev[src.head]
		s.down(event{next.at, next.seq, src}, len(s.queue))
		return run
	}
	src.ev, src.head = src.ev[:0], 0
	if !src.lane {
		s.runs = append(s.runs, src)
	}
	s.pop()
	return run
}

// Simulator owns the virtual clock and event queue. It is not safe for
// concurrent use: a simulation is a single-threaded deterministic program.
type Simulator struct {
	now       Time
	seq       uint64
	queue     []event // min-heap of sources on (at, seq); see push
	pending   int     // events queued, counted through their sources
	lanes     []*source
	runs      []*source // drained runs, ready to stage into
	staged    *source   // the fan-out StageAt builds
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
	return &Simulator{rng: rand.New(rand.NewSource(seed)), staged: new(source)}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Processed reports how many events have been executed.
func (s *Simulator) Processed() uint64 { return s.processed }

// PeakQueue reports the high-water mark of events queued at once.
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

// ScheduleAction enqueues a pre-allocated Action to fire after delay d
// (clamped to ≥ 0).
func (s *Simulator) ScheduleAction(d time.Duration, a Action) { s.enqueue(s.now+d, a) }

// ScheduleLane is ScheduleAction for one of many actions scheduled after the
// same constant delay d: d's lane, a FIFO that needs no sorting (the clock
// never goes back and sequence numbers only grow), takes one heap entry. The
// first maxLanes delays get a lane; any other schedules a single event.
func (s *Simulator) ScheduleLane(d time.Duration, a Action) {
	i := 0
	for i < len(s.lanes) && s.lanes[i].delay != d {
		i++
	}
	if i == maxLanes {
		s.enqueue(s.now+d, a)
		return
	}
	if i == len(s.lanes) {
		s.lanes = append(s.lanes, &source{lane: true, delay: d})
	}
	l, e := s.lanes[i], s.stamp(s.now+d, a)
	if len(l.ev) == 0 {
		s.push(event{e.at, e.seq, l})
	} else if len(l.ev) == cap(l.ev) && 2*l.head >= len(l.ev) {
		// Reuse the fired half, so a lane that never drains stops growing.
		n := copy(l.ev, l.ev[l.head:])
		clear(l.ev[n:])
		l.ev, l.head = l.ev[:n], 0
	}
	l.ev = append(l.ev, e)
	s.queued(1)
}

// StageAt stages a to fire at absolute time t (clamped to now) in the
// fan-out ScheduleStaged queues next, such as one broadcast's deliveries. It
// takes its sequence number now, so the order is exactly that of single
// events scheduled at the same points.
func (s *Simulator) StageAt(t Time, a Action) {
	s.staged.ev = append(s.staged.ev, s.stamp(t, a))
}

// ScheduleStaged queues what was staged since the last call: one event as
// itself, more as one run in firing order — the seqs ascend in staging
// order, so a stable insertion sort on the time alone orders it.
func (s *Simulator) ScheduleStaged() {
	r, ev := s.staged, s.staged.ev
	switch len(ev) {
	case 0:
		return
	case 1:
		s.push(ev[0])
		ev[0], r.ev = event{}, ev[:0]
	default:
		for i := 1; i < len(ev); i++ {
			e, j := ev[i], i
			for ; j > 0 && e.at < ev[j-1].at; j-- {
				ev[j] = ev[j-1]
			}
			ev[j] = e
		}
		s.push(event{ev[0].at, ev[0].seq, r})
		s.staged = Reuse(&s.runs)
	}
	s.queued(len(ev))
}

// stamp keys an event, clamped to now, with the next FIFO tiebreaker.
func (s *Simulator) stamp(t Time, a Action) event {
	s.seq++
	return event{at: max(t, s.now), seq: s.seq, run: a}
}

// enqueue is the way into the heap for a single event.
func (s *Simulator) enqueue(t Time, a Action) {
	s.push(s.stamp(t, a))
	s.queued(1)
}

// queued counts n more pending events and keeps the two high-water marks.
func (s *Simulator) queued(n int) {
	s.pending += n
	s.peakQueue = max(s.peakQueue, s.pending)
	s.eventAllocs = max(s.eventAllocs, s.pending+s.firing)
}

// fire takes the earliest event, advances the clock to it and runs it.
func (s *Simulator) fire() {
	run := s.queue[0].run
	s.now = s.queue[0].at
	if src, ok := run.(*source); ok {
		run = s.take(src)
	} else {
		s.pop()
	}
	s.pending--
	s.processed++
	s.firing = 1
	run.Fire()
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
