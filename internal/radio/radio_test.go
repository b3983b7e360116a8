package radio

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"mccls/internal/mobility"
	"mccls/internal/sim"
)

// line builds a static topology of nodes spaced 200m apart on the x-axis
// (range default 250m, so only adjacent nodes hear each other).
func line(n int) *mobility.Static {
	pts := make([]mobility.Point, n)
	for i := range pts {
		pts[i] = mobility.Point{X: float64(i) * 200}
	}
	return &mobility.Static{Points: pts}
}

func TestNeighborsDiskModel(t *testing.T) {
	s := sim.New(1)
	m := New(s, line(4), Config{})
	got := m.AppendNeighbors(1, nil)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("neighbors(1) = %v, want [0 2]", got)
	}
	if m.InRange(0, 2) {
		t.Fatal("nodes 400m apart are in 250m range")
	}
	if m.InRange(1, 1) {
		t.Fatal("node in range of itself")
	}
}

func TestBroadcastReachesNeighborsOnly(t *testing.T) {
	s := sim.New(1)
	m := New(s, line(4), Config{})
	var got []int
	for i := 0; i < 4; i++ {
		i := i
		m.SetHandler(i, func(from int, payload any) {
			if from != 1 || payload.(string) != "hello" {
				t.Errorf("node %d got bad frame from %d", i, from)
			}
			got = append(got, i)
		})
	}
	m.Broadcast(1, 64, "hello")
	s.Run(time.Second)
	if len(got) != 2 {
		t.Fatalf("broadcast delivered to %v, want exactly nodes 0 and 2", got)
	}
}

func TestUnicastDeliveryAndLinkFailure(t *testing.T) {
	s := sim.New(1)
	m := New(s, line(3), Config{})
	delivered := false
	m.SetHandler(1, func(from int, payload any) { delivered = true })
	if !m.Unicast(0, 1, 128, "pkt") {
		t.Fatal("in-range unicast reported failure")
	}
	if m.Unicast(0, 2, 128, "pkt") {
		t.Fatal("out-of-range unicast reported success")
	}
	s.Run(time.Second)
	if !delivered {
		t.Fatal("unicast frame not delivered")
	}
	if m.Stats.UnicastFailed != 1 || m.Stats.UnicastSent != 2 {
		t.Fatalf("stats = %+v", m.Stats)
	}
}

func TestDeliveryDelayIncludesSerialization(t *testing.T) {
	s := sim.New(1)
	// Disable MAC jitter so the delay is deterministic.
	m := New(s, line(2), Config{macDelayMax: -1})
	var at sim.Time
	m.SetHandler(1, func(int, any) { at = s.Now() })
	m.Unicast(0, 1, 250, "x") // 250 B at 2 Mb/s = 1 ms serialization
	s.Run(time.Second)
	if at < time.Millisecond || at > time.Millisecond+10*time.Microsecond {
		t.Fatalf("delivery at %v, want ≈1ms", at)
	}
}

func TestMobilityChangesConnectivity(t *testing.T) {
	// One node walks out of range over time.
	s := sim.New(1)
	horizonSec := 100.0
	// Hand-built model: node 1 moves away at 10 m/s along x starting at 100m.
	mob := &movingAway{}
	m := New(s, mob, Config{})
	if !m.InRange(0, 1) {
		t.Fatal("initially out of range")
	}
	s.Run(sim.Time(horizonSec/2) * time.Second) // t=50s, distance 600m
	if m.InRange(0, 1) {
		t.Fatal("still in range after moving away")
	}
}

// movingAway is a two-node model where node 1 recedes at 10 m/s. It
// reports no trajectory information (degenerate legs), exercising the
// spatial index's per-instant rebuild fallback.
type movingAway struct{}

func (*movingAway) Nodes() int { return 2 }
func (*movingAway) Position(node int, t time.Duration) mobility.Point {
	if node == 0 {
		return mobility.Point{}
	}
	return mobility.Point{X: 100 + 10*t.Seconds()}
}

func (m *movingAway) Leg(node int, t time.Duration) (from, to mobility.Point, t0, t1 time.Duration) {
	p := m.Position(node, t)
	return p, p, t, t
}

// TestRangeBoundaryClosedDisk pins the squared predicate to the closed-disk
// rule the Hypot one had: a 150-200-250 pair sits exactly at range and is
// linked on every path; one ulp further out it is not.
func TestRangeBoundaryClosedDisk(t *testing.T) {
	for _, c := range []struct {
		p      mobility.Point
		linked bool
	}{
		{mobility.Point{X: 150, Y: 200}, true},
		{mobility.Point{X: 250}, true},
		{mobility.Point{X: math.Nextafter(250, 300)}, false},
		{mobility.Point{Y: -math.Nextafter(250, 300)}, false},
	} {
		m := New(sim.New(1), &mobility.Static{Points: []mobility.Point{{}, c.p}}, Config{Range: 250})
		grid, naive := m.AppendNeighbors(0, nil), appendNeighborsNaive(m, 0, nil)
		if len(grid) == 1 != c.linked || len(naive) == 1 != c.linked || m.InRange(0, 1) != c.linked || m.InRange(1, 0) != c.linked {
			t.Errorf("node at %v: grid=%v naive=%v InRange=%v, want linked=%v", c.p, grid, naive, m.InRange(0, 1), c.linked)
		}
	}
	// A negative range is an empty disk, not the disk of its square.
	m := New(sim.New(1), &mobility.Static{Points: make([]mobility.Point, 2)}, Config{})
	m.SetNodeRange(1, -250)
	if m.InRange(0, 1) || len(m.AppendNeighbors(0, nil)) != 0 {
		t.Error("a radio of negative range is linked to a co-located node")
	}
}

// countingModel counts the Position lookups a medium makes.
type countingModel struct {
	mobility.Model
	calls int
}

func (c *countingModel) Position(node int, t time.Duration) mobility.Point {
	c.calls++
	return c.Model.Position(node, t)
}

// TestBroadcastPositionCalls pins the geometry-once rule by count: a
// broadcast looks up the sender's position and each candidate's once and
// the fan-out to its k receivers looks up none, so it costs at most
// candidates + 1 lookups however large k is; a unicast costs at most 4 (the
// range check at send time, the distance at transmission time).
func TestBroadcastPositionCalls(t *testing.T) {
	const n = 80
	s := sim.New(9)
	mob := &countingModel{Model: mobility.NewManhattanGrid(mobility.ManhattanGridConfig{
		Width: 1000, Height: 1000, MaxSpeed: 10,
	}, n, time.Minute, rand.New(rand.NewSource(9)))}
	m := New(s, mob, Config{Range: 250, macDelayMax: -1})
	delivered := 0
	for i := 0; i < n; i++ {
		m.SetHandler(i, func(int, any) { delivered++ })
	}
	s.Run(5 * time.Second)
	m.AppendNeighbors(0, nil) // build this epoch's index outside the counts
	rebuilds, receivers := m.GridStats().Rebuilds, 0
	for node := 0; node < n; node++ {
		scanned := m.GridStats().Candidates
		mob.calls, delivered = 0, 0
		m.Broadcast(node, 64, "x")
		s.RunAll()
		candidates := int(m.GridStats().Candidates - scanned)
		if mob.calls > candidates+1 {
			t.Fatalf("broadcast from %d to %d receivers made %d Position calls over %d candidates, want <= candidates+1",
				node, delivered, mob.calls, candidates)
		}
		receivers += delivered

		to := (node + 1) % n
		mob.calls = 0
		m.Unicast(node, to, 64, "x")
		s.RunAll()
		if mob.calls > 4 {
			t.Fatalf("unicast %d->%d made %d Position calls, want <= 4", node, to, mob.calls)
		}
	}
	if receivers < n || m.GridStats().Rebuilds != rebuilds {
		t.Fatalf("%d receivers over %d broadcasts, %d index rebuilds inside the counts: the test lost its footing",
			receivers, n, m.GridStats().Rebuilds-rebuilds)
	}
}
