package aodv

import (
	"errors"
	"testing"
	"time"
)

func TestCrashDropsTrafficAndRestartRecovers(t *testing.T) {
	// 0—1—2 line: node 1 is the only relay.
	s, m, ns := testNet(t, 3, Config{}, nil)

	ns[0].Send(2, 64)
	s.Run(2 * time.Second)
	if ns[2].Stats.DataDelivered != 1 {
		t.Fatalf("pre-crash delivery = %d, want 1", ns[2].Stats.DataDelivered)
	}

	if !ns[1].Down() {
		t.Fatal("Down on a live node must report a transition")
	}
	if ns[1].Down() {
		t.Fatal("Down on a down node must be a no-op")
	}
	if !m.NodeDown(1) {
		t.Fatal("crash not reflected in node and medium state")
	}

	// With the relay dead the source must detect the break (no MAC ACK)
	// and fail discovery; nothing arrives.
	ns[0].Send(2, 64)
	s.Run(22 * time.Second)
	if ns[2].Stats.DataDelivered != 1 {
		t.Fatalf("delivery through a crashed relay: %d", ns[2].Stats.DataDelivered)
	}
	if ns[1].Stats.Crashes != 1 {
		t.Fatalf("Crashes = %d", ns[1].Stats.Crashes)
	}

	// Restart with a cold boot: traffic flows again via fresh discovery.
	if !ns[1].Up(false) {
		t.Fatal("Up on a down node must report a transition")
	}
	if ns[1].Up(false) {
		t.Fatal("Up on a live node must be a no-op")
	}
	ns[0].Send(2, 64)
	s.Run(30 * time.Second)
	if ns[2].Stats.DataDelivered != 2 {
		t.Fatalf("post-restart delivery = %d, want 2", ns[2].Stats.DataDelivered)
	}
	if ns[1].Stats.Restarts != 1 {
		t.Fatalf("Restarts = %d", ns[1].Stats.Restarts)
	}
}

func TestRestartRetainsOrFlushesRoutes(t *testing.T) {
	s, _, ns := testNet(t, 3, Config{}, nil)
	ns[0].Send(2, 64)
	s.Run(time.Second)
	if _, ok := hasRoute(ns[1], 2); !ok {
		t.Fatal("relay has no route before crash")
	}

	ns[1].Down()
	ns[1].Up(true)
	if _, ok := hasRoute(ns[1], 2); !ok {
		t.Fatal("warm restart must retain routing state")
	}

	ns[1].Down()
	ns[1].Up(false)
	if _, ok := hasRoute(ns[1], 2); ok {
		t.Fatal("cold restart must flush routing state")
	}
}

func TestDownNodeDropsInFlightFrames(t *testing.T) {
	// The medium stops offering frames to a down node at transmission
	// start, but a frame already in flight still arrives at the dead
	// radio; model that arrival directly.
	_, _, ns := testNet(t, 2, Config{}, nil)
	ns[1].Down()
	ns[1].handleFrame(0, &DataPacket{Src: 0, Dst: 1, Bytes: 64, TTL: 32})
	if ns[1].Stats.DataDelivered != 0 {
		t.Fatal("down node accepted a frame")
	}
	if ns[1].Stats.DropNodeDown != 1 {
		t.Fatalf("DropNodeDown = %d, want 1", ns[1].Stats.DropNodeDown)
	}
}

// errAuth fails every signing attempt for one node; everyone else passes.
type errAuth struct{ bad int }

func (a errAuth) Sign(node int, _ []byte) ([]byte, time.Duration, error) {
	if node == a.bad {
		return nil, 0, errors.New("rng broken")
	}
	return []byte{1}, 0, nil
}
func (errAuth) Verify(int, []byte, []byte) (bool, time.Duration) { return true, 0 }
func (errAuth) Overhead() int                                    { return 1 }

func TestSignFailureCountedAndPacketDropped(t *testing.T) {
	s, _, ns := testNet(t, 3, Config{}, errAuth{bad: 0})
	ns[0].Send(2, 64)
	s.Run(20 * time.Second)
	if ns[0].Stats.SignFailures == 0 {
		t.Fatal("sign failures not counted")
	}
	// The RREQ never left the node: no neighbor saw the flood.
	if ns[1].Stats.RREQForwarded != 0 || ns[1].Stats.AuthRejected != 0 {
		t.Fatal("unsigned RREQ escaped the failing signer")
	}
	if ns[2].Stats.DataDelivered != 0 {
		t.Fatal("data delivered without a signable route")
	}
}
