package sim

import (
	"container/heap"
	"slices"
	"testing"
	"time"
)

// oracleSim is the event queue as it was before the value-keyed heap: a
// container/heap of pointers to pooled event records. It is kept, trimmed to
// what the differential fuzzer drives, as the reference the shipped queue
// must agree with event for event and counter for counter.
type oracleSim struct {
	now         Time
	seq         uint64
	queue       oracleHeap
	processed   uint64
	maxEvents   uint64
	err         error
	free        []*oracleEvent
	eventAllocs uint64
	peakQueue   int
}

type oracleEvent struct {
	at  Time
	seq uint64
	fn  func()
	run Action
}

type oracleHeap []*oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(*oracleEvent)) }
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

func (s *oracleSim) Now() Time             { return s.now }
func (s *oracleSim) Processed() uint64     { return s.processed }
func (s *oracleSim) pendingEvents() int    { return len(s.queue) }
func (s *oracleSim) PeakQueue() int        { return s.peakQueue }
func (s *oracleSim) EventAllocs() uint64   { return s.eventAllocs }
func (s *oracleSim) SetMaxEvents(n uint64) { s.maxEvents = n }
func (s *oracleSim) Err() error            { return s.err }

func (s *oracleSim) stopped() bool {
	if s.err != nil {
		return true
	}
	if s.maxEvents > 0 && s.processed >= s.maxEvents {
		s.err = ErrEventBudget
		return true
	}
	return false
}

func (s *oracleSim) schedule(t Time, fn func(), a Action) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	var e *oracleEvent
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = new(oracleEvent)
		s.eventAllocs++
	}
	e.at, e.seq, e.fn, e.run = t, s.seq, fn, a
	heap.Push(&s.queue, e)
	if len(s.queue) > s.peakQueue {
		s.peakQueue = len(s.queue)
	}
}

func (s *oracleSim) ScheduleAt(t Time, fn func())      { s.schedule(t, fn, nil) }
func (s *oracleSim) scheduleActionAt(t Time, a Action) { s.schedule(t, nil, a) }

// The oracle has no sources: a lane's or a fan-out's actions are plain
// scheduleActionAt calls in the order they are made.
func (s *oracleSim) ScheduleLane(d time.Duration, a Action) { s.scheduleActionAt(s.now+d, a) }
func (s *oracleSim) StageAt(t Time, a Action)               { s.scheduleActionAt(t, a) }
func (s *oracleSim) ScheduleStaged()                        {}

// scheduleActionAt (a single Action event at an absolute time) and
// pendingEvents (the queued count) are the two calls only this harness makes
// of the shipped queue.
func (s *Simulator) scheduleActionAt(t Time, a Action) { s.enqueue(t, a) }
func (s *Simulator) pendingEvents() int                { return s.pending }

func (s *oracleSim) fire() {
	next := heap.Pop(&s.queue).(*oracleEvent)
	s.now = next.at
	s.processed++
	if next.run != nil {
		next.run.Fire()
	} else {
		next.fn()
	}
	next.fn, next.run = nil, nil
	s.free = append(s.free, next)
}

func (s *oracleSim) Run(until Time) {
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

func (s *oracleSim) RunAll() {
	for len(s.queue) > 0 && !s.stopped() {
		s.fire()
	}
}

// eventQueue is what the fuzzer drives on both implementations.
type eventQueue interface {
	ScheduleAt(Time, func())
	scheduleActionAt(Time, Action)
	ScheduleLane(time.Duration, Action)
	StageAt(Time, Action)
	ScheduleStaged()
	Run(Time)
	RunAll()
	SetMaxEvents(uint64)
	Now() Time
	Processed() uint64
	pendingEvents() int
	PeakQueue() int
	EventAllocs() uint64
	Err() error
}

// fired is one executed event: when it ran and its scheduling rank, which
// equals the queue's internal seq because every schedule call takes one.
type fired struct {
	at  Time
	seq uint64
}

// driver interprets a fuzz program against one queue, logging what fires.
type driver struct {
	q                 eventQueue
	seq               uint64
	log               []fired
	holders, budgeted bool
}

// node is a scheduled callback. Firing it logs it and schedules one child
// per spawn byte — the byte picks the child's delay (−2…5 ns: past-time
// clamping and same-instant ties) and how it is scheduled: a closure, an
// Action, into a lane (delay laneDelays[b%8]) or staged into a fan-out the
// callback schedules once it has spawned everything. Each child inherits a
// strictly shorter spawn list, so a tree is finite.
type node struct {
	d     *driver
	seq   uint64
	spawn []byte
}

// How a spawned child is scheduled, from its spawn byte.
const (
	spawnAction = 8
	spawnLane   = 16
	spawnStaged = 32
)

// laneDelays is the constant-delay set: more delays than maxLanes, so
// ScheduleLane's heap fallback runs too, with 0 for same-instant ties.
var laneDelays = [8]time.Duration{0, 3, 1, 5, 2, 0, 7, 4}

func (d *driver) node(spawn []byte) *node {
	d.seq++
	return &node{d: d, seq: d.seq, spawn: spawn}
}

func (d *driver) schedule(t Time, asAction bool, spawn []byte) {
	n := d.node(spawn)
	if asAction {
		d.q.scheduleActionAt(t, n)
	} else {
		d.q.ScheduleAt(t, n.Fire)
	}
}

func (n *node) Fire() {
	d := n.d
	d.log = append(d.log, fired{d.q.Now(), n.seq})
	for i, b := range n.spawn {
		spawn := n.spawn[i+1:]
		switch {
		case b&spawnStaged != 0:
			d.q.StageAt(d.q.Now()+Time(b%8)-2, d.node(spawn))
		case b&spawnLane != 0:
			d.q.ScheduleLane(laneDelays[b%8], d.node(spawn))
		default:
			d.schedule(d.q.Now()+Time(b%8)-2, b&spawnAction != 0, spawn)
		}
	}
	d.q.ScheduleStaged()
}

// holder is bench/'s queueNS pattern: an Action that reschedules itself up to
// ~1 µs ahead forever, holding the queue at the depth it was seeded with.
type holder struct {
	d   *driver
	seq uint64
	x   uint64
}

func (h *holder) schedule() {
	d := h.d
	d.seq++
	h.seq = d.seq
	h.x = h.x*6364136223846793005 + 1442695040888963407
	d.q.scheduleActionAt(d.q.Now()+Time(h.x>>54)+1, h)
}

func (h *holder) Fire() {
	h.d.log = append(h.d.log, fired{h.d.q.Now(), h.seq})
	h.schedule()
}

const (
	opClosure = iota // ScheduleAt a leaf
	opAction         // scheduleActionAt a leaf
	opTree           // schedule a node that schedules from inside its callback
	opRun            // Run(now + arg%8)
	opRunAll
	opBudget  // SetMaxEvents(processed + arg)
	opHolders // seed arg·16 self-rescheduling holders
	opLane    // ScheduleLane(laneDelays[arg%8]) a node, spawn bytes as opTree
	opFanOut  // stage 1 + arg%8 leaves, one time byte each, and schedule them
	opCount
)

// step executes the instruction at the head of program — opcode, argument,
// and for opTree and opLane up to five spawn bytes, for opFanOut up to eight
// time bytes — and returns its length.
func (d *driver) step(program []byte) int {
	op, arg, n := program[0]%opCount, program[1], 2
	at := d.q.Now() + Time(arg%16) - 4 // up to 4 ns in the past: clamped
	switch op {
	case opClosure, opAction:
		d.schedule(at, op == opAction, nil)
	case opTree:
		n += min(int(arg>>4)%6, len(program)-2)
		d.schedule(at, arg&8 != 0, program[2:n])
	case opLane:
		n += min(int(arg>>4)%6, len(program)-2)
		d.q.ScheduleLane(laneDelays[arg%8], d.node(program[2:n]))
	case opFanOut:
		// Unsorted, tied and past times, as a broadcast's arrivals are.
		n += min(1+int(arg%8), len(program)-2)
		for _, b := range program[2:n] {
			d.q.StageAt(d.q.Now()+Time(b%16)-4, d.node(nil))
		}
		d.q.ScheduleStaged()
	case opBudget:
		// A budget of 0 is no budget: it must not let holders run forever.
		d.q.SetMaxEvents(d.q.Processed() + uint64(arg))
		d.budgeted = d.q.Processed()+uint64(arg) > 0
	case opHolders:
		for k := 0; k < int(arg)*16; k++ {
			(&holder{d: d, x: uint64(k)}).schedule()
		}
		d.holders = d.holders || arg > 0
	case opRun, opRunAll:
		if d.holders && !d.budgeted {
			// Holders never drain: a run past them needs a budget.
			d.q.SetMaxEvents(d.q.Processed() + 20_000)
			d.budgeted = true
		}
		if op == opRun {
			d.q.Run(d.q.Now() + Time(arg%8))
		} else {
			d.q.RunAll()
		}
	}
	return n
}

// FuzzEventQueueVsContainerHeap drives the shipped queue and the
// container/heap oracle with the same random interleaving of ScheduleAt,
// scheduleActionAt, ScheduleLane, staged fan-outs, scheduling from inside
// callbacks, Run(until), RunAll and MaxEvents cut-offs, dense with
// same-instant ties and past times. After every instruction the clocks and
// all four counters must agree; at the end so must the full (at, seq) firing
// order.
func FuzzEventQueueVsContainerHeap(f *testing.F) {
	// bench/'s queue workload: 3 808 holders, cut off by the event budget.
	f.Add([]byte{opHolders, 238, opRunAll, 0})
	// Ties, past times and nested scheduling, run in slices and then drained.
	f.Add([]byte{opClosure, 4, opAction, 4, opClosure, 0, opTree, 0x5c, 2, 10, 3, 11, 2, opAction, 9,
		opRun, 1, opTree, 0x34, 9, 1, 8, opRun, 7, opClosure, 4, opRunAll, 0})
	// A budget that trips mid-drain, then more scheduling against the stopped queue.
	f.Add([]byte{opTree, 0x50, 2, 2, 2, 2, 2, opTree, 0x58, 10, 10, 10, 10, 10, opBudget, 9,
		opRunAll, 0, opAction, 5, opRun, 3, opRunAll, 0})
	// A zero budget is no budget: the holders must still be cut off.
	f.Add([]byte{opBudget, 0, opHolders, 1, opRunAll, 0})
	// Every lane delay, more than maxLanes of them, two at once, a lane node
	// that spawns into lanes, run in slices so lanes drain and refill.
	f.Add([]byte{opLane, 0, opLane, 1, opLane, 1, opLane, 2, opLane, 3, opLane, 4, opLane, 5, opLane, 6,
		opLane, 7, opRun, 2, opLane, 0x40, 16, 17, 21, 16, opRun, 3, opLane, 0x23, 18, 19, opRunAll, 0,
		opLane, 0, opLane, 0, opRunAll, 0})
	// A lane that stays busy while its storage fills: trees spawning into
	// the 3 ns lane, so its fired prefix is reused rather than grown.
	f.Add([]byte{opLane, 0x51, 17, 17, 17, 17, 17, opLane, 0x51, 17, 17, 17, 17, 17, opRunAll, 0})
	// Fan-outs of 1, 5, 8 and 3 with unsorted, tied and past times, drained
	// part-way by Run(until), interleaved with single events and a fan-out
	// staged from inside callbacks.
	f.Add([]byte{opFanOut, 0, 7, opFanOut, 4, 9, 2, 9, 0, 15, opAction, 3, opRun, 2,
		opFanOut, 7, 15, 3, 3, 0, 12, 8, 1, 3, opTree, 0x48, 33, 40, 34, 32, opRun, 4,
		opBudget, 6, opRunAll, 0, opFanOut, 2, 4, 4, 4, opRunAll, 0})
	f.Fuzz(func(t *testing.T, program []byte) {
		got, want := &driver{q: New(1)}, &driver{q: &oracleSim{}}
		for pc := 0; len(program) >= 2; pc++ {
			n := got.step(program)
			want.step(program)
			program = program[n:]
			g, w := got.q, want.q
			if g.Now() != w.Now() || g.Processed() != w.Processed() || g.pendingEvents() != w.pendingEvents() ||
				g.PeakQueue() != w.PeakQueue() || g.EventAllocs() != w.EventAllocs() || g.Err() != w.Err() {
				t.Fatalf("after instruction %d: now %v/%v processed %d/%d pending %d/%d peak %d/%d allocs %d/%d err %v/%v (queue/oracle)",
					pc, g.Now(), w.Now(), g.Processed(), w.Processed(), g.pendingEvents(), w.pendingEvents(),
					g.PeakQueue(), w.PeakQueue(), g.EventAllocs(), w.EventAllocs(), g.Err(), w.Err())
			}
		}
		if !slices.Equal(got.log, want.log) {
			for i := range min(len(got.log), len(want.log)) {
				if got.log[i] != want.log[i] {
					t.Fatalf("event %d fired as %+v, oracle fired %+v", i, got.log[i], want.log[i])
				}
			}
			t.Fatalf("fired %d events, oracle fired %d", len(got.log), len(want.log))
		}
	})
}
