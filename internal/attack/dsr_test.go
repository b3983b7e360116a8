package attack

import (
	"testing"
	"time"

	"mccls/internal/dsr"
	"mccls/internal/mobility"
	"mccls/internal/radio"
	"mccls/internal/routing"
	"mccls/internal/sim"
)

// dsrDiamond mirrors the AODV diamond: 0 reaches 3 via 1 or 2, 4 behind 3.
func dsrDiamond(t *testing.T, auth routing.Authenticator) (*sim.Simulator, []*dsr.Node) {
	t.Helper()
	pts := &mobility.Static{Points: []mobility.Point{
		{X: 0, Y: 100},
		{X: 180, Y: 10},
		{X: 180, Y: 190},
		{X: 360, Y: 100},
		{X: 560, Y: 100},
	}}
	s := sim.New(4)
	m := radio.New(s, pts, radio.Config{})
	if auth == nil {
		auth = routing.NullAuth{}
	}
	nodes := make([]*dsr.Node, pts.Nodes())
	for i := range nodes {
		nodes[i] = dsr.NewNode(i, s, m, auth)
	}
	return s, nodes
}

func sendBurst(s *sim.Simulator, src *dsr.Node, dst int, n int) {
	for i := 0; i < n; i++ {
		s.Schedule(time.Duration(i)*100*time.Millisecond, func() { src.Send(dst, 256) })
	}
}

func TestDSRBlackholePlain(t *testing.T) {
	s, nodes := dsrDiamond(t, nil)
	MakeDSRBlackhole(nodes[1])
	sendBurst(s, nodes[0], 4, 20)
	s.Run(10 * time.Second)
	if nodes[1].Stats.DropByAttacker == 0 {
		t.Fatalf("DSR black hole absorbed nothing (delivered=%d)", nodes[4].Stats.DataDelivered)
	}
}

func TestDSRBlackholeNeutralizedByMcCLS(t *testing.T) {
	auth := enrolledCostAuth(5, 1)
	s, nodes := dsrDiamond(t, auth)
	MakeDSRBlackhole(nodes[1])
	sendBurst(s, nodes[0], 4, 20)
	s.Run(10 * time.Second)
	if nodes[1].Stats.DropByAttacker != 0 {
		t.Fatalf("DSR black hole absorbed %d despite authentication", nodes[1].Stats.DropByAttacker)
	}
	if nodes[4].Stats.DataDelivered != 20 {
		t.Fatalf("delivered %d/20 around the black hole", nodes[4].Stats.DataDelivered)
	}
}

func TestDSRRushingPlain(t *testing.T) {
	s, nodes := dsrDiamond(t, nil)
	MakeDSRRushing(nodes[1])
	sendBurst(s, nodes[0], 4, 20)
	s.Run(10 * time.Second)
	if nodes[1].Stats.DropByAttacker == 0 {
		t.Fatalf("DSR rushing captured nothing (delivered=%d)", nodes[4].Stats.DataDelivered)
	}
	if nodes[4].Stats.DataDelivered != 0 {
		t.Fatalf("expected total capture on this topology, delivered=%d", nodes[4].Stats.DataDelivered)
	}
}

func TestDSRRushingNeutralizedByMcCLS(t *testing.T) {
	auth := enrolledCostAuth(5, 1)
	s, nodes := dsrDiamond(t, auth)
	MakeDSRRushing(nodes[1])
	sendBurst(s, nodes[0], 4, 20)
	s.Run(10 * time.Second)
	if nodes[1].Stats.DropByAttacker != 0 {
		t.Fatalf("DSR rushing absorbed %d despite authentication", nodes[1].Stats.DropByAttacker)
	}
	if nodes[4].Stats.DataDelivered != 20 {
		t.Fatalf("delivered %d/20", nodes[4].Stats.DataDelivered)
	}
}
