package dsr

import (
	"testing"
	"time"

	"mccls/internal/mobility"
	"mccls/internal/radio"
	"mccls/internal/routing"
	"mccls/internal/sim"
)

// lineNet builds DSR nodes on a static line topology with 200m spacing
// (radio range 250m → adjacent-only links).
func lineNet(t *testing.T, nodes int, auth routing.Authenticator) (*sim.Simulator, []*Node) {
	t.Helper()
	pts := make([]mobility.Point, nodes)
	for i := range pts {
		pts[i] = mobility.Point{X: float64(i) * 200}
	}
	return netAt(t, &mobility.Static{Points: pts}, auth)
}

func netAt(t *testing.T, mob mobility.Model, auth routing.Authenticator) (*sim.Simulator, []*Node) {
	t.Helper()
	s := sim.New(5)
	m := radio.New(s, mob, radio.Config{})
	if auth == nil {
		auth = routing.NullAuth{}
	}
	ns := make([]*Node, mob.Nodes())
	for i := range ns {
		ns[i] = NewNode(i, s, m, auth)
	}
	return s, ns
}

func TestDiscoveryAndSourceRouting(t *testing.T) {
	s, ns := lineNet(t, 4, nil)
	ns[0].Send(3, 256)
	s.Run(3 * time.Second)
	if ns[3].Stats.DataDelivered != 1 {
		t.Fatalf("delivered %d, want 1", ns[3].Stats.DataDelivered)
	}
	route, ok := ns[0].cache[3]
	if !ok {
		t.Fatal("no cached route at source")
	}
	want := []int{0, 1, 2, 3}
	if len(route) != len(want) {
		t.Fatalf("route %v, want %v", route, want)
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("route %v, want %v", route, want)
		}
	}
	// Intermediates forwarded the data exactly once each.
	if ns[1].Stats.DataForwarded != 1 || ns[2].Stats.DataForwarded != 1 {
		t.Fatal("unexpected forwarding counts")
	}
	// Reverse-path caching: the target learned a route back to the origin.
	if _, ok := ns[3].cache[0]; !ok {
		t.Fatal("target did not cache the reverse route")
	}
}

func TestCachedRouteSkipsRediscovery(t *testing.T) {
	s, ns := lineNet(t, 3, nil)
	ns[0].Send(2, 64)
	s.Run(2 * time.Second)
	reqs := ns[0].Stats.RREQInitiated
	ns[0].Send(2, 64)
	s.Run(4 * time.Second)
	if ns[2].Stats.DataDelivered != 2 {
		t.Fatalf("delivered %d, want 2", ns[2].Stats.DataDelivered)
	}
	if ns[0].Stats.RREQInitiated != reqs {
		t.Fatal("second send re-discovered despite cache")
	}
}

func TestDiscoveryFailure(t *testing.T) {
	pts := &mobility.Static{Points: []mobility.Point{{X: 0}, {X: 900}}}
	s, ns := netAt(t, pts, nil)
	ns[0].Send(1, 64)
	s.Run(20 * time.Second)
	if ns[0].Stats.DropNoRoute != 1 {
		t.Fatalf("DropNoRoute = %d, want 1", ns[0].Stats.DropNoRoute)
	}
	if ns[0].Stats.RREQRetried != retries {
		t.Fatalf("RequestRetried = %d", ns[0].Stats.RREQRetried)
	}
}

// dsrBreakable severs the 0-1 link after one second.
type dsrBreakable struct{}

func (*dsrBreakable) Nodes() int { return 3 }

// Leg reports no trajectory information, exercising the radio medium's
// per-instant spatial-index fallback.
func (m *dsrBreakable) Leg(node int, ts time.Duration) (from, to mobility.Point, t0, t1 time.Duration) {
	p := m.Position(node, ts)
	return p, p, ts, ts
}

func (*dsrBreakable) Position(node int, ts time.Duration) mobility.Point {
	switch node {
	case 0:
		return mobility.Point{X: 0}
	case 1:
		x := 200.0
		if ts > time.Second {
			x += 30 * (ts - time.Second).Seconds()
		}
		return mobility.Point{X: x}
	default:
		return mobility.Point{X: 400}
	}
}

func TestLinkBreakPurgesCacheAndReportsError(t *testing.T) {
	s, ns := netAt(t, &dsrBreakable{}, nil)
	ns[0].Send(2, 64)
	s.Run(time.Second)
	if ns[2].Stats.DataDelivered != 1 {
		t.Fatal("initial delivery failed")
	}
	s.Run(5 * time.Second) // node 1 walks away
	ns[0].Send(2, 64)
	s.Run(15 * time.Second)
	// The stale first hop fails at the source: the packet is re-buffered,
	// rediscovery runs against the now-partitioned field and fails.
	if ns[0].Stats.DropNoRoute == 0 {
		t.Fatalf("stale-route failure not handled: %+v", ns[0].Stats)
	}
	if _, ok := ns[0].cache[2]; ok {
		t.Fatal("stale route still cached")
	}
	if ns[2].Stats.DataDelivered != 1 {
		t.Fatalf("delivered %d, want just the pre-break packet", ns[2].Stats.DataDelivered)
	}
}

func TestDSRAuthRejectsUnenrolledRelay(t *testing.T) {
	s, ns := lineNet(t, 3, dsrRejectAuth{bad: 1})
	ns[0].Send(2, 64)
	s.Run(20 * time.Second)
	if ns[2].Stats.DataDelivered != 0 {
		t.Fatal("data crossed an unauthenticated relay")
	}
	if ns[0].Stats.DropNoRoute == 0 {
		t.Fatal("discovery did not fail")
	}
}

// dsrRejectAuth rejects control packets from one node.
type dsrRejectAuth struct{ bad int }

func (a dsrRejectAuth) Sign(node int, _ []byte) ([]byte, time.Duration, error) {
	return []byte{byte(node)}, 0, nil
}
func (a dsrRejectAuth) Verify(node int, _, _ []byte) (bool, time.Duration) {
	return node != a.bad, 0
}
func (dsrRejectAuth) Overhead() int { return 1 }

func TestRouteLoopRejected(t *testing.T) {
	s, ns := lineNet(t, 2, nil)
	// A request whose accumulated route already contains the receiver must
	// be dropped (loop prevention).
	req := &RouteRequest{ID: 9, Origin: 0, Target: 5, Route: []int{0, 1}, TTL: 5, HopAuth: routing.HopAuth{Sender: 0}}
	ns[1].handleFrame(0, req)
	s.Run(time.Second)
	if ns[1].Stats.RREQForwarded != 0 {
		t.Fatal("looping request forwarded")
	}
}

func TestSelfSend(t *testing.T) {
	s, ns := lineNet(t, 2, nil)
	ns[0].Send(0, 10)
	s.Run(time.Second)
	if ns[0].Stats.DataDelivered != 1 {
		t.Fatal("loopback delivery failed")
	}
}

func TestEncodeBindsRoute(t *testing.T) {
	a := &RouteRequest{ID: 1, Origin: 0, Target: 3, Route: []int{0, 1}, TTL: 4, HopAuth: routing.HopAuth{Sender: 1}}
	b := &RouteRequest{ID: 1, Origin: 0, Target: 3, Route: []int{0, 2}, TTL: 4, HopAuth: routing.HopAuth{Sender: 1}}
	if string(a.AppendEncode(nil)) == string(b.AppendEncode(nil)) {
		t.Fatal("route not covered by the canonical encoding")
	}
	r1 := &RouteReply{Route: []int{0, 1, 2}, HopAuth: routing.HopAuth{Sender: 2}}
	r2 := &RouteReply{Route: []int{0, 1, 2, 3}, HopAuth: routing.HopAuth{Sender: 2}}
	if string(r1.AppendEncode(nil)) == string(r2.AppendEncode(nil)) {
		t.Fatal("reply routes collide")
	}
}

func TestCrashDropsBufferedPacketsAndPendingDiscoveries(t *testing.T) {
	// 0 — 1 and nobody else: node 9 does not exist, so the discovery for it
	// would retry and finally count the buffered packets as DropNoRoute.
	s, ns := lineNet(t, 2, nil)
	ns[0].Send(9, 64)
	ns[0].Send(9, 64)
	s.Run(100 * time.Millisecond)
	if !ns[0].Down() || ns[0].Down() {
		t.Fatal("Down must report exactly one transition")
	}
	s.Run(2 * time.Second)
	if !ns[0].Up(false) || ns[0].Up(false) {
		t.Fatal("Up must report exactly one transition")
	}
	s.RunAll()
	st := ns[0].Stats
	if st.RREQRetried != 0 || st.DropNoRoute != 0 {
		t.Fatalf("discovery survived the crash: retried=%d noRoute=%d", st.RREQRetried, st.DropNoRoute)
	}
	if st.Crashes != 1 || st.Restarts != 1 {
		t.Fatalf("crashes=%d restarts=%d, want 1/1", st.Crashes, st.Restarts)
	}

	// The buffer died with the process: a fresh discovery that fails now
	// drops only the packet sent after the restart.
	ns[0].Send(9, 64)
	s.RunAll()
	if got := ns[0].Stats.DropNoRoute; got != 1 {
		t.Fatalf("DropNoRoute = %d after restart, want 1 (pre-crash packets must be gone)", got)
	}

	// Offered load and arriving frames at a down node are counted, not
	// processed.
	ns[1].Down()
	ns[1].Send(0, 64)
	ns[1].handleFrame(0, &DataPacket{Route: []int{0, 1}, Bytes: 64})
	if st := ns[1].Stats; st.DropNodeDown != 2 || st.DataDelivered != 0 {
		t.Fatalf("down node: DropNodeDown=%d delivered=%d, want 2/0", st.DropNodeDown, st.DataDelivered)
	}
}

func TestRestartRetainsOrFlushesCache(t *testing.T) {
	s, ns := lineNet(t, 3, nil)
	ns[0].Send(2, 64)
	s.Run(time.Second)
	if _, ok := ns[1].cache[2]; !ok {
		t.Fatal("relay cached no route before the crash")
	}

	ns[1].Down()
	ns[1].Up(true)
	if _, ok := ns[1].cache[2]; !ok {
		t.Fatal("warm restart must keep the route cache")
	}

	ns[1].Down()
	ns[1].Up(false)
	if _, ok := ns[1].cache[2]; ok {
		t.Fatal("cold restart must flush the route cache")
	}
}
