package radio

import (
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
	got := m.Neighbors(1)
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

func TestLossRateDropsFrames(t *testing.T) {
	s := sim.New(1)
	m := New(s, line(2), Config{lossRate: 1.0})
	m.SetHandler(1, func(int, any) { t.Fatal("lossy channel delivered") })
	for i := 0; i < 10; i++ {
		m.Unicast(0, 1, 64, i)
	}
	s.Run(time.Second)
	if m.Stats.Lost != 10 {
		t.Fatalf("lost = %d, want 10", m.Stats.Lost)
	}
}

func TestCollisionModel(t *testing.T) {
	// Nodes 0 and 2 both in range of 1; simultaneous sends collide at 1.
	s := sim.New(1)
	pts := &mobility.Static{Points: []mobility.Point{{X: 0}, {X: 200}, {X: 400}}}
	m := New(s, pts, Config{Collisions: true, macDelayMax: -1})
	delivered := 0
	m.SetHandler(1, func(int, any) { delivered++ })
	m.Unicast(0, 1, 512, "a")
	m.Unicast(2, 1, 512, "b")
	s.Run(time.Second)
	if delivered != 0 {
		t.Fatalf("overlapping frames delivered: %d", delivered)
	}
	if m.Stats.Collided != 2 {
		t.Fatalf("collided = %d, want 2", m.Stats.Collided)
	}
	// Non-overlapping transmissions are fine.
	m.Unicast(0, 1, 64, "c")
	s.Run(2 * time.Second)
	m.Unicast(2, 1, 64, "d")
	s.Run(3 * time.Second)
	if delivered != 2 {
		t.Fatalf("sequential frames delivered %d, want 2", delivered)
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
