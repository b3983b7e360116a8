package aodv

import (
	"testing"
	"time"

	"mccls/internal/radio"
	"mccls/internal/routing"
	"mccls/internal/sim"
)

func TestHelloDisabledByDefault(t *testing.T) {
	s, _, ns := testNet(t, 2, Config{}, nil)
	s.Run(10 * time.Second)
	if ns[0].Stats.HelloSent != 0 {
		t.Fatal("HELLOs emitted although disabled")
	}
}

func TestHelloBeaconing(t *testing.T) {
	cfg := Config{HelloInterval: time.Second}
	s, _, ns := testNet(t, 2, cfg, nil)
	s.Run(10 * time.Second)
	if ns[0].Stats.HelloSent < 8 || ns[0].Stats.HelloSent > 11 {
		t.Fatalf("HelloSent = %d, want ≈10", ns[0].Stats.HelloSent)
	}
	// Beacons establish hop-1 routes without any data traffic.
	if hop, ok := hasRoute(ns[0], 1); !ok || hop != 1 {
		t.Fatal("HELLO did not install neighbor route")
	}
}

func TestHelloDetectsDeadNeighborProactively(t *testing.T) {
	// Node 1 walks away after 1s; with HELLOs the broken link is noticed
	// within a few intervals, without sending any data over it.
	cfg := Config{HelloInterval: 500 * time.Millisecond}
	s := sim.New(7)
	m := radio.New(s, &breakableLink{}, radio.Config{})
	ns := make([]*Node, 3)
	for i := range ns {
		ns[i] = NewNode(i, s, m, cfg, routing.NullAuth{})
	}
	// Establish a route 0 → 2 while the topology is intact.
	delivered := 0
	ns[2].OnDeliver = func(*DataPacket) { delivered++ }
	ns[0].Send(2, 64)
	s.Run(time.Second)
	if delivered != 1 {
		t.Fatal("setup delivery failed")
	}
	// Node 1 leaves; by t=10s node 0 must have declared it lost and
	// invalidated the route — with no further data sends.
	s.Run(10 * time.Second)
	if ns[0].Stats.NeighborsLost == 0 {
		t.Fatal("dead neighbor never detected")
	}
	if _, ok := hasRoute(ns[0], 2); ok {
		t.Fatal("route through dead neighbor still valid")
	}
}

func TestHelloAuthenticatedUnderMcCLS(t *testing.T) {
	// A non-enrolled node's HELLOs must be rejected: it cannot install
	// itself as a live neighbor.
	cfg := Config{HelloInterval: time.Second}
	s, _, ns := testNet(t, 2, cfg, rejectAuth{bad: 1})
	s.Run(5 * time.Second)
	if ns[0].Stats.AuthRejected == 0 {
		t.Fatal("unauthenticated HELLOs not rejected")
	}
	if _, ok := hasRoute(ns[0], 1); ok {
		t.Fatal("attacker HELLO installed a route")
	}
	// The enrolled node's HELLOs still pass in the other direction.
	if _, ok := hasRoute(ns[1], 0); !ok {
		t.Fatal("legitimate HELLO rejected")
	}
}

func TestHelloEncodeDistinct(t *testing.T) {
	a := &Hello{Seq: 1, HopAuth: routing.HopAuth{Sender: 2}}
	b := &Hello{Seq: 1, HopAuth: routing.HopAuth{Sender: 3}}
	c := &Hello{Seq: 2, HopAuth: routing.HopAuth{Sender: 2}}
	if string(a.AppendEncode(nil)) == string(b.AppendEncode(nil)) || string(a.AppendEncode(nil)) == string(c.AppendEncode(nil)) {
		t.Fatal("HELLO encodings collide")
	}
}
