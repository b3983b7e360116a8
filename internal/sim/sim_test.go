package sim

import (
	"errors"
	"slices"
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	s.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	s.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run(time.Second)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if s.Now() != time.Second {
		t.Fatalf("clock = %v, want 1s", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	s.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var fired []Time
	s.Schedule(10*time.Millisecond, func() {
		fired = append(fired, s.Now())
		s.Schedule(5*time.Millisecond, func() {
			fired = append(fired, s.Now())
		})
	})
	s.Run(time.Second)
	if len(fired) != 2 || fired[0] != 10*time.Millisecond || fired[1] != 15*time.Millisecond {
		t.Fatalf("nested scheduling broken: %v", fired)
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	s := New(1)
	ran := false
	s.Schedule(2*time.Second, func() { ran = true })
	s.Run(time.Second)
	if ran {
		t.Fatal("event beyond horizon executed")
	}
	if s.pending != 1 {
		t.Fatal("pending event lost")
	}
	s.Run(3 * time.Second)
	if !ran {
		t.Fatal("event within extended horizon not executed")
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New(1)
	s.Schedule(10*time.Millisecond, func() {
		s.Schedule(-5*time.Millisecond, func() {
			if s.Now() != 10*time.Millisecond {
				t.Fatalf("negative delay ran at %v", s.Now())
			}
		})
	})
	s.RunAll()
	if s.Processed() != 2 {
		t.Fatalf("processed %d events, want 2", s.Processed())
	}
}

func TestMaxEventsBudget(t *testing.T) {
	s := New(1)
	s.SetMaxEvents(10)
	// A self-rescheduling chain that would run forever under RunAll.
	var fired int
	var tick func()
	tick = func() {
		fired++
		s.Schedule(time.Millisecond, tick)
	}
	s.Schedule(0, tick)
	s.RunAll()
	if s.Err() != ErrEventBudget {
		t.Fatalf("err = %v, want ErrEventBudget", s.Err())
	}
	if fired != 10 {
		t.Fatalf("executed %d events, want exactly the budget of 10", fired)
	}
	// The error is sticky: further runs are no-ops.
	s.Run(time.Hour)
	if fired != 10 {
		t.Fatal("run continued past an exhausted budget")
	}
}

func TestMaxEventsCleanRunLeavesNoError(t *testing.T) {
	s := New(1)
	s.SetMaxEvents(100)
	ran := false
	s.Schedule(time.Millisecond, func() { ran = true })
	s.Run(time.Second)
	if !ran || s.Err() != nil {
		t.Fatalf("budgeted clean run broken: ran=%v err=%v", ran, s.Err())
	}
	if s.Now() != time.Second {
		t.Fatalf("clock = %v, want 1s", s.Now())
	}
}

func TestInterruptStopsRun(t *testing.T) {
	stop := errors.New("stop requested")
	s := New(1)
	s.SetInterrupt(func() error { return stop })
	ran := false
	s.Schedule(time.Millisecond, func() { ran = true })
	s.Run(time.Second)
	if ran {
		t.Fatal("event executed despite interrupt")
	}
	if s.Err() != stop {
		t.Fatalf("err = %v, want the interrupt error", s.Err())
	}
}

func TestInterruptPolledMidRun(t *testing.T) {
	stop := errors.New("stop")
	s := New(1)
	// Pass the poll at event 0, fail the one after the first stride: the
	// run must stop exactly at the stride boundary.
	s.SetInterrupt(func() error {
		if s.Processed() >= interruptStride {
			return stop
		}
		return nil
	})
	for i := 0; i < 3*interruptStride; i++ {
		s.Schedule(time.Duration(i)*time.Microsecond, func() {})
	}
	s.RunAll()
	if s.Err() != stop {
		t.Fatalf("err = %v, want stop", s.Err())
	}
	if got := s.Processed(); got != interruptStride {
		t.Fatalf("processed %d events, want exactly one stride (%d)", got, interruptStride)
	}
}

func TestEventPoolRecyclesAndTracksPeak(t *testing.T) {
	s := New(1)
	// A self-rescheduling chain: after the first event, every schedule can
	// reuse the record the previous event released.
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < 1000 {
			s.Schedule(time.Millisecond, tick)
		}
	}
	s.Schedule(0, tick)
	s.RunAll()
	if n != 1000 {
		t.Fatalf("chain ran %d times, want 1000", n)
	}
	// Two records, not one: an event schedules its successor before it is
	// itself released, so the chain ping-pongs between two pooled records.
	if got := s.EventAllocs(); got != 2 {
		t.Fatalf("chain of 1000 events allocated %d records, want 2 (pooled)", got)
	}
	if s.PeakQueue() != 1 {
		t.Fatalf("peak queue = %d, want 1", s.PeakQueue())
	}
}

func TestPeakQueueHighWaterMark(t *testing.T) {
	s := New(1)
	for i := 0; i < 17; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	if s.PeakQueue() != 17 {
		t.Fatalf("peak queue = %d, want 17", s.PeakQueue())
	}
	s.RunAll()
	if s.PeakQueue() != 17 {
		t.Fatalf("peak must persist after the run, got %d", s.PeakQueue())
	}
	if s.EventAllocs() != 17 {
		t.Fatalf("allocs = %d, want 17 (all queued at once)", s.EventAllocs())
	}
	// A second burst of the same size reuses every record.
	for i := 0; i < 17; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	s.RunAll()
	if s.EventAllocs() != 17 {
		t.Fatalf("allocs grew to %d on a reusable burst", s.EventAllocs())
	}
}

type nop struct{}

func (nop) Fire() {}

// TestScheduleSteadyStateZeroAlloc pins the zero-allocation guarantee of the
// schedule/run cycle once the pool is warm, through every entry point: a
// single event, a lane, and a fan-out run.
func TestScheduleSteadyStateZeroAlloc(t *testing.T) {
	s := New(1)
	fn := func() {}
	cycle := func() {
		s.Schedule(0, fn)
		s.ScheduleLane(time.Millisecond, nop{})
		s.ScheduleLane(time.Millisecond, nop{})
		for _, d := range []Time{3, 1, 2, 1} {
			s.StageAt(s.Now()+d, nop{})
		}
		s.ScheduleStaged()
		s.RunAll()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Fatalf("steady-state schedule/run allocates %.1f/op, want 0", allocs)
	}
}

// TestSourcesPendingMatchesOracle pins the two moments a source changes
// shape under Run(until): a lane that drains and is refilled, and a run cut
// off part-way. Pending counts events, not heap entries, so it must read
// what the container/heap oracle reads at every step.
func TestSourcesPendingMatchesOracle(t *testing.T) {
	got, want := &driver{q: New(1)}, &driver{q: &oracleSim{}}
	steps := []func(d *driver){
		// Three events in the 3 ns lane, drained, then two more.
		func(d *driver) {
			for range 3 {
				d.q.ScheduleLane(3, d.node(nil))
			}
		},
		func(d *driver) { d.q.Run(d.q.Now() + 5) },
		func(d *driver) {
			d.q.ScheduleLane(3, d.node(nil))
			d.q.ScheduleLane(3, d.node(nil))
		},
		// A run of five, unsorted with a tie, cut off after two.
		func(d *driver) {
			for _, at := range []Time{40, 10, 30, 10, 20} {
				d.q.StageAt(d.q.Now()+at, d.node(nil))
			}
			d.q.ScheduleStaged()
		},
		func(d *driver) { d.q.Run(d.q.Now() + 15) },
		func(d *driver) { d.q.Run(d.q.Now() + 10) },
		func(d *driver) { d.q.RunAll() },
	}
	for i, step := range steps {
		step(got)
		step(want)
		if g, w := got.q.pendingEvents(), want.q.pendingEvents(); g != w {
			t.Fatalf("step %d: pending %d, oracle %d", i, g, w)
		}
		if g, w := got.q.PeakQueue(), want.q.PeakQueue(); g != w {
			t.Fatalf("step %d: PeakQueue %d, oracle %d", i, g, w)
		}
	}
	if !slices.Equal(got.log, want.log) || len(got.log) != 10 {
		t.Fatalf("fired %v, oracle %v", got.log, want.log)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		s := New(42)
		var vals []int64
		for i := 0; i < 5; i++ {
			d := time.Duration(s.Rand().Intn(100)) * time.Millisecond
			s.Schedule(d, func() { vals = append(vals, int64(s.Now())) })
		}
		s.RunAll()
		return vals
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic event count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different schedules")
		}
	}
}
