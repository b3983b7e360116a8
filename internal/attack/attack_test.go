package attack

import (
	"testing"
	"time"

	"math/rand"

	"mccls/internal/aodv"
	"mccls/internal/mobility"
	"mccls/internal/radio"
	"mccls/internal/routing"
	"mccls/internal/secrouting"
	"mccls/internal/sim"
)

// diamond builds the topology
//
//	    1
//	  /   \
//	0       3 --- 4
//	  \   /
//	    2
//
// where node 0 reaches 3 via 1 or 2, and 4 hangs off 3. All hops are 200m
// (radio range 250m).
func diamond(t *testing.T, auth routing.Authenticator) (*sim.Simulator, []*aodv.Node) {
	t.Helper()
	pts := &mobility.Static{Points: []mobility.Point{
		{X: 0, Y: 100},
		{X: 180, Y: 10},
		{X: 180, Y: 190},
		{X: 360, Y: 100},
		{X: 560, Y: 100},
	}}
	s := sim.New(3)
	m := radio.New(s, pts, radio.Config{})
	if auth == nil {
		auth = routing.NullAuth{}
	}
	nodes := make([]*aodv.Node, pts.Nodes())
	for i := range nodes {
		nodes[i] = aodv.NewNode(i, s, m, aodv.Config{}, auth)
	}
	return s, nodes
}

// enrolledCostAuth returns a cost-model authenticator with every node but
// the listed attackers enrolled.
func enrolledCostAuth(n int, attackers ...int) *secrouting.CostModelAuth {
	a := secrouting.NewCostModelAuth()
	bad := map[int]bool{}
	for _, id := range attackers {
		bad[id] = true
	}
	for i := 0; i < n; i++ {
		if !bad[i] {
			a.Enroll(i)
		}
	}
	return a
}

func TestBlackholeAbsorbsDataUnderPlainAODV(t *testing.T) {
	s, nodes := diamond(t, nil)
	MakeBlackhole(nodes[1])
	for i := 0; i < 20; i++ {
		s.Schedule(time.Duration(i)*100*time.Millisecond, func() { nodes[0].Send(4, 256) })
	}
	s.Run(10 * time.Second)
	// The forged instant RREP must beat the real 3-hop route: traffic is
	// absorbed.
	if nodes[1].Stats.DropByAttacker == 0 {
		t.Fatalf("black hole absorbed nothing: delivered=%d", nodes[4].Stats.DataDelivered)
	}
	if nodes[4].Stats.DataDelivered == 20 {
		t.Fatal("attack had no effect on delivery")
	}
}

func TestBlackholeNeutralizedByMcCLS(t *testing.T) {
	auth := enrolledCostAuth(5, 1)
	s, nodes := diamond(t, auth)
	MakeBlackhole(nodes[1])
	for i := 0; i < 20; i++ {
		s.Schedule(time.Duration(i)*100*time.Millisecond, func() { nodes[0].Send(4, 256) })
	}
	s.Run(10 * time.Second)
	if nodes[1].Stats.DropByAttacker != 0 {
		t.Fatalf("black hole absorbed %d packets despite authentication", nodes[1].Stats.DropByAttacker)
	}
	if nodes[4].Stats.DataDelivered != 20 {
		t.Fatalf("delivered %d/20 around the black hole", nodes[4].Stats.DataDelivered)
	}
	// The forged RREPs were rejected somewhere.
	rejections := uint64(0)
	for _, n := range nodes {
		rejections += n.Stats.AuthRejected
	}
	if rejections == 0 {
		t.Fatal("no authentication rejections recorded")
	}
}

func TestRushingWinsRaceUnderPlainAODV(t *testing.T) {
	s, nodes := diamond(t, nil)
	MakeRushing(nodes[1])
	for i := 0; i < 20; i++ {
		s.Schedule(time.Duration(i)*100*time.Millisecond, func() { nodes[0].Send(4, 256) })
	}
	s.Run(10 * time.Second)
	// The attacker's zero-jitter forward wins the duplicate race at node 3,
	// so the reverse path (and the data) runs through node 1.
	if nodes[1].Stats.DropByAttacker == 0 {
		t.Fatalf("rushing attacker captured nothing: delivered=%d honest=%d",
			nodes[4].Stats.DataDelivered, nodes[2].Stats.DataForwarded)
	}
	if nodes[4].Stats.DataDelivered != 0 {
		t.Fatalf("expected total capture on this topology, delivered=%d", nodes[4].Stats.DataDelivered)
	}
}

func TestRushingNeutralizedByMcCLS(t *testing.T) {
	auth := enrolledCostAuth(5, 1)
	s, nodes := diamond(t, auth)
	MakeRushing(nodes[1])
	for i := 0; i < 20; i++ {
		s.Schedule(time.Duration(i)*100*time.Millisecond, func() { nodes[0].Send(4, 256) })
	}
	s.Run(10 * time.Second)
	if nodes[1].Stats.DropByAttacker != 0 {
		t.Fatalf("rushing attacker absorbed %d packets despite authentication", nodes[1].Stats.DropByAttacker)
	}
	if nodes[4].Stats.DataDelivered != 20 {
		t.Fatalf("delivered %d/20", nodes[4].Stats.DataDelivered)
	}
	// Node 3 must have rejected the rushed (unauthenticated) forwards.
	if nodes[3].Stats.AuthRejected == 0 {
		t.Fatal("rushed RREQs were not rejected")
	}
}

func TestBlackholeRepliesEvenWithoutRoute(t *testing.T) {
	// Black hole forges replies for destinations it has never heard of.
	s, nodes := diamond(t, nil)
	MakeBlackhole(nodes[1])
	nodes[0].Send(4, 64)
	s.Run(2 * time.Second)
	// The forged route wins, so the buffered packet flows into the hole.
	if got := nodes[1].Stats.DropByAttacker; got != 1 {
		t.Fatalf("black hole absorbed %d packets, want the 1 sent along its forged route", got)
	}
}

func TestGrayholeSelectiveDrop(t *testing.T) {
	s, nodes := diamond(t, nil)
	// Insider gray hole at node 1 dropping half the traffic it carries.
	MakeGrayhole(nodes[1], 0.5, rand.New(rand.NewSource(5)))
	// Force the path through node 1 by moving node 2 out of range.
	nodes[2].Hooks.OnRREQ = func(*aodv.Node, int, *aodv.RREQ) bool { return false }
	const total = 60
	for i := 0; i < total; i++ {
		s.Schedule(time.Duration(i)*100*time.Millisecond, func() { nodes[0].Send(4, 128) })
	}
	s.Run(20 * time.Second)
	dropped := int(nodes[1].Stats.DropByAttacker)
	if dropped == 0 || dropped == total {
		t.Fatalf("gray hole dropped %d/%d, want selective dropping", dropped, total)
	}
	if nodes[4].Stats.DataDelivered == 0 {
		t.Fatal("gray hole absorbed everything; should forward a fraction")
	}
	// Roughly half should vanish (generous bounds; the route flaps as
	// RERRs fire on unrelated timeouts).
	ratio := float64(dropped) / float64(total)
	if ratio < 0.2 || ratio > 0.8 {
		t.Fatalf("drop fraction %.2f outside [0.2, 0.8]", ratio)
	}
}
