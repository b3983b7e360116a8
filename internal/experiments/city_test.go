package experiments

import (
	"reflect"
	"testing"
	"time"
)

// cityScenario is a small city run that still exercises the Manhattan
// streets, range jitter, and the spatial index.
func cityScenario() Scenario {
	return Scenario{
		Nodes: 30, Width: 800, Height: 800,
		Mobility: ManhattanMobility, MaxSpeed: 10, RangeJitter: 0.3,
		Duration: 30 * time.Second, Seed: 5,
	}
}

func TestManhattanScenarioRunsAndDelivers(t *testing.T) {
	res, err := cityScenario().Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DataSent == 0 || res.DataDelivered == 0 {
		t.Fatalf("city scenario moved no data: %+v", res.Stats)
	}
	if res.PeakQueue == 0 || res.EventAllocs == 0 {
		t.Fatalf("missing event-core observability: peak=%d allocs=%d",
			res.PeakQueue, res.EventAllocs)
	}
	if res.Grid.Rebuilds == 0 || res.Grid.Queries == 0 {
		t.Fatalf("spatial index unused: %+v", res.Grid)
	}
	// Event pooling means fresh allocations track the queue's high-water
	// mark, not the (much larger) processed-event count.
	if res.EventAllocs >= res.Events {
		t.Fatalf("event pool ineffective: %d allocs for %d events", res.EventAllocs, res.Events)
	}
}

func TestMobilityModelsDiverge(t *testing.T) {
	sc := cityScenario()
	manhattan, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	sc.Mobility = RandomWaypointMobility
	rwp, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(manhattan.Stats, rwp.Stats) {
		t.Fatal("manhattan and random-waypoint runs produced identical summaries")
	}
}

func TestUnknownMobilityRejected(t *testing.T) {
	sc := cityScenario()
	sc.Mobility = MobilityModel(99)
	if _, err := sc.Run(); err == nil {
		t.Fatal("unknown mobility model accepted")
	}
}

func TestTooFewNodesRejected(t *testing.T) {
	if _, err := (Scenario{Nodes: -3}).Run(); err == nil {
		t.Fatal("negative node count accepted")
	}
}

// TestRangeJitterChangesTopologyNotRNG pins the independence property: the
// jitter stream must alter connectivity without shifting the simulation RNG,
// so jitter==0 stays bit-identical to the pre-jitter code path (covered by
// every determinism test), and jittered runs remain deterministic.
func TestRangeJitterChangesTopologyNotRNG(t *testing.T) {
	sc := cityScenario()
	a, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("jittered runs are not deterministic")
	}
	sc.RangeJitter = 0
	c, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Stats, c.Stats) {
		t.Fatal("range jitter had no observable effect")
	}
}

func TestFigureCityShape(t *testing.T) {
	fig, err := RunFigure("fig9", SweepConfig{
		Base:    Scenario{Duration: 15 * time.Second, Flows: 5},
		Axis:    []float64{20, 40},
		Repeats: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig9" || fig.XColumn != "nodes" {
		t.Fatalf("figure identity: %q %q", fig.ID, fig.XColumn)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series: %d, want 2 (AODV, McCLS)", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.X) != 2 || s.X[0] != 20 || s.X[1] != 40 {
			t.Fatalf("series %q x-axis: %v", s.Label, s.X)
		}
		for i, y := range s.Y {
			if y < 0 || y > 1 {
				t.Fatalf("series %q PDR out of range at %d: %g", s.Label, i, y)
			}
		}
		if len(s.YErr) != len(s.Y) {
			t.Fatalf("series %q missing CIs", s.Label)
		}
	}
}

// TestCitySweepWorkerInvariance pins the scaled guarantee: a city sweep is
// bit-identical serial vs parallel.
func TestCitySweepWorkerInvariance(t *testing.T) {
	workerInvariance(t, nodesAxis, SweepConfig{
		Base:    Scenario{Duration: 10 * time.Second, Flows: 5},
		Axis:    []float64{20, 30},
		Repeats: 2,
	}, 4)
}

// TestEventLoopAllocsPerEvent pins what an event costs in heap allocations
// on a 50-node city run, set-up included: the event queue, the agents'
// timers, the radio's delivery records and the control-packet receive path
// are all pooled or scratch-buffered, and so are the queue's lanes and
// fan-out runs, so what is left is one copy per forwarded packet and the
// maps that grow: 0.270 (AODV) and 0.316 (McCLS) per event (0.268 / 0.312
// before the queue held sources; 4.02 and 4.44 before the pools). The 0.35
// ceiling fails a lane or run that allocates per event. ROADMAP aim 4's
// "0 allocs/op on the event loop" is what this ceiling gets tightened to.
func TestEventLoopAllocsPerEvent(t *testing.T) {
	for _, sec := range []SecurityMode{Plain, McCLSCost} {
		sc := cityScenario()
		sc.Nodes, sc.Width, sc.Height, sc.Duration, sc.Security = 50, 1000, 1000, 20*time.Second, sec
		var events uint64
		allocs := testing.AllocsPerRun(1, func() {
			res, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			events = res.Events
		})
		if perEvent := allocs / float64(events); perEvent > 0.35 {
			t.Errorf("%v: %.0f allocations over %d events = %.3f per event, want ≤ 0.35", sec, allocs, events, perEvent)
		} else {
			t.Logf("%v: %.0f allocations over %d events = %.3f per event", sec, allocs, events, perEvent)
		}
	}
}
