package traffic

import (
	"math/rand"
	"testing"
	"time"

	"mccls/internal/aodv"
	"mccls/internal/mobility"
	"mccls/internal/radio"
	"mccls/internal/routing"
	"mccls/internal/sim"
)

// senders adapts a slice of AODV nodes to the Sender interface.
func senders(nodes []*aodv.Node) []Sender {
	out := make([]Sender, len(nodes))
	for i, n := range nodes {
		out[i] = n
	}
	return out
}

func TestRandomFlowsDistinctAndEligible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	eligible := []int{0, 2, 4, 6}
	flows := RandomFlows(5, eligible, rng)
	if len(flows) != 5 {
		t.Fatalf("got %d flows", len(flows))
	}
	seen := map[Flow]bool{}
	ok := map[int]bool{0: true, 2: true, 4: true, 6: true}
	for _, f := range flows {
		if f.Src == f.Dst {
			t.Fatal("self flow")
		}
		if !ok[f.Src] || !ok[f.Dst] {
			t.Fatalf("flow uses ineligible node: %+v", f)
		}
		if seen[f] {
			t.Fatal("duplicate flow")
		}
		seen[f] = true
	}
}

func TestRandomFlowsPanicsWithoutNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for <2 eligible nodes")
		}
	}()
	RandomFlows(1, []int{3}, rand.New(rand.NewSource(1)))
}

func TestCBRRateAndWindow(t *testing.T) {
	s := sim.New(1)
	pts := &mobility.Static{Points: []mobility.Point{{X: 0}, {X: 100}}}
	m := radio.New(s, pts, radio.Config{})
	nodes := []*aodv.Node{
		aodv.NewNode(0, s, m, aodv.Config{}, routing.NullAuth{}),
		aodv.NewNode(1, s, m, aodv.Config{}, routing.NullAuth{}),
	}
	StartCBR(s, senders(nodes), []Flow{{Src: 0, Dst: 1}}, CBRConfig{
		rate:        10,
		packetBytes: 100,
		Start:       time.Second,
		Stop:        11 * time.Second,
	})
	s.Run(20 * time.Second)
	// 10 pkt/s over a 10s window with a random phase offset: 99–101.
	sent := nodes[0].Stats.DataSent
	if sent < 99 || sent > 101 {
		t.Fatalf("sent %d packets, want ≈100", sent)
	}
	if nodes[1].Stats.DataDelivered != sent {
		t.Fatalf("delivered %d of %d on a one-hop link", nodes[1].Stats.DataDelivered, sent)
	}
	// Nothing sent before Start.
	if s.Processed() == 0 {
		t.Fatal("no events processed")
	}
}

func TestCBRMultipleFlowsDesynchronized(t *testing.T) {
	s := sim.New(2)
	pts := &mobility.Static{Points: []mobility.Point{{X: 0}, {X: 100}, {X: 50, Y: 50}}}
	m := radio.New(s, pts, radio.Config{})
	nodes := make([]*aodv.Node, 3)
	for i := range nodes {
		nodes[i] = aodv.NewNode(i, s, m, aodv.Config{}, routing.NullAuth{})
	}
	StartCBR(s, senders(nodes), []Flow{{Src: 0, Dst: 1}, {Src: 2, Dst: 1}}, CBRConfig{
		Stop: 5 * time.Second,
	})
	s.Run(10 * time.Second)
	if nodes[0].Stats.DataSent == 0 || nodes[2].Stats.DataSent == 0 {
		t.Fatal("a flow emitted nothing")
	}
}
