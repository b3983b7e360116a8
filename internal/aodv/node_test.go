package aodv

import (
	"testing"
	"time"

	"mccls/internal/mobility"
	"mccls/internal/radio"
	"mccls/internal/routing"
	"mccls/internal/secrouting"
	"mccls/internal/sim"
)

// testNet builds a network of AODV nodes over a static line topology with
// 200m spacing (radio range 250m → only adjacent nodes are neighbors).
func testNet(t *testing.T, nodes int, cfg Config, auth routing.Authenticator) (*sim.Simulator, *radio.Medium, []*Node) {
	t.Helper()
	pts := make([]mobility.Point, nodes)
	for i := range pts {
		pts[i] = mobility.Point{X: float64(i) * 200}
	}
	return testNetAt(t, &mobility.Static{Points: pts}, cfg, auth)
}

func testNetAt(t *testing.T, mob mobility.Model, cfg Config, auth routing.Authenticator) (*sim.Simulator, *radio.Medium, []*Node) {
	t.Helper()
	s := sim.New(7)
	m := radio.New(s, mob, radio.Config{})
	if auth == nil {
		auth = routing.NullAuth{}
	}
	ns := make([]*Node, mob.Nodes())
	for i := range ns {
		ns[i] = NewNode(i, s, m, cfg, auth)
	}
	return s, m, ns
}

// hasRoute reports whether n holds a usable route to dest, and its next hop.
func hasRoute(n *Node, dest int) (nextHop int, ok bool) {
	if e := n.route(dest); e != nil {
		return e.nextHop, true
	}
	return 0, false
}

func TestRouteDiscoveryAndDelivery(t *testing.T) {
	s, m, ns := testNet(t, 4, Config{}, nil)
	// The destination's radio handler sees the packet it delivers.
	var got []*DataPacket
	handle := m.Handler(3)
	m.SetHandler(3, func(from int, payload any) {
		if p, ok := payload.(*DataPacket); ok {
			got = append(got, p)
		}
		handle(from, payload)
	})
	ns[0].Send(3, 512)
	s.Run(time.Second)
	if len(got) != 1 || ns[3].Stats.DataDelivered != 1 {
		t.Fatalf("delivered %d packets (%d data frames), want 1", ns[3].Stats.DataDelivered, len(got))
	}
	if got[0].Src != 0 || got[0].Dst != 3 || got[0].Bytes != 512 {
		t.Fatalf("bad packet: %+v", got[0])
	}
	// Forward route at source and reverse route at destination.
	if hop, ok := hasRoute(ns[0], 3); !ok || hop != 1 {
		t.Fatalf("source route = (%d, %v), want via 1", hop, ok)
	}
	if hop, ok := hasRoute(ns[3], 0); !ok || hop != 2 {
		t.Fatalf("dest reverse route = (%d, %v), want via 2", hop, ok)
	}
	if ns[0].Stats.RREQInitiated != 1 {
		t.Fatalf("RREQInitiated = %d", ns[0].Stats.RREQInitiated)
	}
	// Intermediates forwarded both the RREQ and the data.
	if ns[1].Stats.DataForwarded != 1 || ns[2].Stats.DataForwarded != 1 {
		t.Fatal("intermediates did not forward data")
	}
	// End-to-end delay was recorded at the destination.
	if ns[3].Stats.DelayCount != 1 || ns[3].Stats.DelaySum <= 0 {
		t.Fatalf("delay not recorded: %+v", ns[3].Stats)
	}
}

func TestSecondSendUsesCachedRoute(t *testing.T) {
	s, _, ns := testNet(t, 3, Config{}, nil)
	ns[0].Send(2, 100)
	s.Run(2 * time.Second)
	rreqsAfterFirst := ns[0].Stats.RREQInitiated
	ns[0].Send(2, 100)
	s.Run(4 * time.Second)
	if ns[2].Stats.DataDelivered != 2 {
		t.Fatalf("delivered %d, want 2", ns[2].Stats.DataDelivered)
	}
	if ns[0].Stats.RREQInitiated != rreqsAfterFirst {
		t.Fatal("second send re-discovered despite cached route")
	}
}

func TestDuplicateRREQSuppression(t *testing.T) {
	// Diamond: 0 reaches 1 and 2; both reach 3. Node 3 must process the
	// flood once per (origin, id) even though it hears two copies.
	pts := &mobility.Static{Points: []mobility.Point{
		{X: 0, Y: 100}, {X: 200, Y: 0}, {X: 200, Y: 200}, {X: 400, Y: 100},
	}}
	s, _, ns := testNetAt(t, pts, Config{}, nil)
	ns[0].Send(3, 64)
	s.Run(3 * time.Second)
	if ns[3].Stats.DataDelivered != 1 {
		t.Fatalf("delivered %d, want exactly 1", ns[3].Stats.DataDelivered)
	}
	if ns[3].Stats.RREPOriginated != 1 {
		t.Fatalf("destination replied %d times, want 1", ns[3].Stats.RREPOriginated)
	}
}

func TestExpandingRingEscalation(t *testing.T) {
	// 6-node line with TTLStart=1: the rings of 1 and 3 hops cannot reach
	// node 5, so the discovery must retry twice, to 5 hops, and succeed.
	s, _, ns := testNet(t, 6, Config{TTLStart: 1}, nil)
	ns[0].Send(5, 64)
	s.Run(20 * time.Second)
	if ns[5].Stats.DataDelivered != 1 {
		t.Fatalf("delivered %d, want 1", ns[5].Stats.DataDelivered)
	}
	if ns[0].Stats.RREQRetried != 2 {
		t.Fatalf("RREQRetried = %d, want 2 ring escalations", ns[0].Stats.RREQRetried)
	}
}

func TestDiscoveryFailureDropsBuffered(t *testing.T) {
	// Node 2 is unreachable (500m away from the 0-1 pair).
	pts := &mobility.Static{Points: []mobility.Point{
		{X: 0}, {X: 200}, {X: 900},
	}}
	s, _, ns := testNetAt(t, pts, Config{}, nil)
	ns[0].Send(2, 64)
	ns[0].Send(2, 64)
	s.Run(30 * time.Second)
	if ns[0].Stats.DropNoRoute != 2 {
		t.Fatalf("DropNoRoute = %d, want 2", ns[0].Stats.DropNoRoute)
	}
	if _, ok := hasRoute(ns[0], 2); ok {
		t.Fatal("phantom route to unreachable node")
	}
	// Retries happened (1 + rreqRetries attempts total).
	if ns[0].Stats.RREQRetried != rreqRetries {
		t.Fatalf("RREQRetried = %d", ns[0].Stats.RREQRetried)
	}
}

// TestBufferOverflow: sendBufferCap+6 sends to an unreachable node overflow
// the discovery buffer by 6.
func TestBufferOverflow(t *testing.T) {
	pts := &mobility.Static{Points: []mobility.Point{{X: 0}, {X: 900}}}
	s, _, ns := testNetAt(t, pts, Config{}, nil)
	for i := 0; i < sendBufferCap+6; i++ {
		ns[0].Send(1, 64)
	}
	s.Run(time.Second)
	if ns[0].Stats.DropBufferOverflow != 6 {
		t.Fatalf("DropBufferOverflow = %d, want 6", ns[0].Stats.DropBufferOverflow)
	}
}

func TestIntermediateReply(t *testing.T) {
	s, _, ns := testNet(t, 4, Config{}, nil)
	// Prime node 1 with a fresh route to 3 by running a discovery from it.
	ns[1].Send(3, 64)
	s.Run(2 * time.Second)
	if ns[3].Stats.DataDelivered != 1 {
		t.Fatal("priming send failed")
	}
	// Node 0's discovery should be answered by node 1 from cache: node 3
	// must originate no additional RREP.
	repliesBefore := ns[3].Stats.RREPOriginated
	ns[0].Send(3, 64)
	s.Run(4 * time.Second)
	if ns[3].Stats.DataDelivered != 2 {
		t.Fatal("second send not delivered")
	}
	if ns[3].Stats.RREPOriginated != repliesBefore {
		t.Fatal("destination replied although an intermediate had a fresh route")
	}
	if ns[1].Stats.RREPOriginated == 0 {
		t.Fatal("intermediate did not reply from cache")
	}
}

// breakableLink places node 1 within range initially; it walks away after
// the first second, severing the 0-1 link.
type breakableLink struct{}

func (*breakableLink) Nodes() int { return 3 }

// Leg reports no trajectory information, exercising the radio medium's
// per-instant spatial-index fallback.
func (m *breakableLink) Leg(node int, ts time.Duration) (from, to mobility.Point, t0, t1 time.Duration) {
	p := m.Position(node, ts)
	return p, p, ts, ts
}

func (*breakableLink) Position(node int, ts time.Duration) mobility.Point {
	switch node {
	case 0:
		return mobility.Point{X: 0}
	case 1:
		x := 200.0
		if ts > time.Second {
			x += 20 * (ts - time.Second).Seconds() // 20 m/s away
		}
		return mobility.Point{X: x}
	default:
		return mobility.Point{X: 400}
	}
}

func TestLinkBreakTriggersRERRAndRediscovery(t *testing.T) {
	s, _, ns := testNetAt(t, &breakableLink{}, Config{}, nil)
	ns[0].Send(2, 64)
	s.Run(time.Second)
	if ns[2].Stats.DataDelivered != 1 {
		t.Fatal("initial delivery failed")
	}
	// At t≈4s node 1 is ≈260m from 0: the link is broken. Sending again
	// must fail over the stale route and raise a link-break drop.
	s.Run(4 * time.Second)
	ns[0].Send(2, 64)
	s.Run(5 * time.Second)
	if ns[0].Stats.DropLinkBreak == 0 && ns[0].Stats.DropNoRoute == 0 {
		t.Fatalf("no link-break detected: %+v", ns[0].Stats)
	}
	if _, ok := hasRoute(ns[0], 2); ok {
		t.Fatal("broken route still marked valid")
	}
}

func TestDataTTLExpiry(t *testing.T) {
	s, _, ns := testNet(t, 4, Config{dataTTL: 1}, nil)
	ns[0].Send(3, 64)
	s.Run(5 * time.Second)
	if ns[3].Stats.DataDelivered != 0 {
		t.Fatal("packet with TTL 1 crossed 3 hops")
	}
	if ns[1].Stats.DropTTLExpired != 1 {
		t.Fatalf("DropTTLExpired = %d, want 1 at first hop", ns[1].Stats.DropTTLExpired)
	}
}

// rejectAuth rejects control packets from a specific node; everything else
// passes. It stands in for signature verification in unit tests.
type rejectAuth struct{ bad int }

func (a rejectAuth) Sign(node int, _ []byte) ([]byte, time.Duration, error) {
	return []byte{byte(node)}, 0, nil
}
func (a rejectAuth) Verify(node int, _, _ []byte) (bool, time.Duration) {
	return node != a.bad, 0
}
func (rejectAuth) Overhead() int { return 1 }

func TestAuthRejectionBlocksControl(t *testing.T) {
	// Node 1 is the only path 0→2 but fails authentication: discovery
	// must fail and the rejection must be counted.
	s, _, ns := testNet(t, 3, Config{}, rejectAuth{bad: 1})
	ns[0].Send(2, 64)
	s.Run(20 * time.Second)
	if ns[2].Stats.DataDelivered != 0 {
		t.Fatal("data delivered through unauthenticated relay")
	}
	if ns[0].Stats.DropNoRoute == 0 {
		t.Fatal("discovery did not fail")
	}
	if ns[2].Stats.AuthRejected == 0 && ns[0].Stats.AuthRejected == 0 {
		t.Fatal("no auth rejections recorded")
	}
}

func TestSenderSpoofRejected(t *testing.T) {
	s, _, ns := testNet(t, 2, Config{}, nil)
	// Deliver a frame whose claimed Sender differs from the actual
	// transmitter: it must be dropped even under NullAuth.
	req := &RREQ{ID: 1, Origin: 5, Dest: 0, TTL: 3, HopAuth: routing.HopAuth{Sender: 5}}
	ns[1].handleFrame(0, req)
	s.Run(time.Second)
	if ns[1].Stats.AuthRejected != 1 {
		t.Fatalf("spoofed sender not rejected: %+v", ns[1].Stats)
	}
}

func TestSeqNewerRollover(t *testing.T) {
	if !seqNewer(1, 0) || seqNewer(0, 1) {
		t.Fatal("basic ordering broken")
	}
	if !seqNewer(0, ^uint32(0)) {
		t.Fatal("rollover not handled: 0 should be newer than 2^32-1")
	}
	if seqNewer(5, 5) {
		t.Fatal("equal sequence numbers are not newer")
	}
}

// TestRouteExpiry: the destination's RREP grants twice activeRouteTimeout
// (6 s), and a send at 5 s refreshes the route to activeRouteTimeout (3 s)
// past it: alive at 7.9 s, gone at 8.1 s.
func TestRouteExpiry(t *testing.T) {
	s, _, ns := testNet(t, 3, Config{}, nil)
	ns[0].Send(2, 64)
	s.Run(300 * time.Millisecond)
	if _, ok := hasRoute(ns[0], 2); !ok {
		t.Fatal("route missing right after discovery window")
	}
	s.Run(5 * time.Second)
	ns[0].Send(2, 64)
	s.Run(7900 * time.Millisecond)
	if _, ok := hasRoute(ns[0], 2); !ok {
		t.Fatal("route expired within activeRouteTimeout of its last use")
	}
	s.Run(8100 * time.Millisecond)
	if _, ok := hasRoute(ns[0], 2); ok {
		t.Fatal("route survived activeRouteTimeout past its last use")
	}
}

func TestSelfSendDeliversLocally(t *testing.T) {
	s, _, ns := testNet(t, 2, Config{}, nil)
	ns[0].Send(0, 10)
	s.Run(time.Second)
	if ns[0].Stats.DataDelivered != 1 {
		t.Fatal("loopback delivery failed")
	}
}

func TestUpdateRoutePrefersFresherSeq(t *testing.T) {
	s, _, ns := testNet(t, 2, Config{}, nil)
	_ = s
	n := ns[0]
	n.updateRoute(9, 1, 3, 10, true, time.Minute)
	// Older sequence number must not displace the entry.
	n.updateRoute(9, 1, 1, 5, true, time.Minute)
	if e := n.route(9); e == nil || e.destSeq != 10 || e.hops != 3 {
		t.Fatalf("stale update applied: %+v", e)
	}
	// Same seq, fewer hops wins.
	n.updateRoute(9, 1, 2, 10, true, time.Minute)
	if e := n.route(9); e == nil || e.hops != 2 {
		t.Fatalf("shorter path not adopted: %+v", e)
	}
	// Newer seq wins even with more hops.
	n.updateRoute(9, 1, 7, 11, true, time.Minute)
	if e := n.route(9); e == nil || e.destSeq != 11 || e.hops != 7 {
		t.Fatalf("fresher seq not adopted: %+v", e)
	}
}

// TestDuplicateRREQReceiveAllocatesNothing pins the cost of the commonest
// event of a flood: a neighbour's rebroadcast of a request this node has
// already handled. It is encoded into the agent's scratch buffer, verified
// under the cost-model authenticator, held for the verification delay in a
// pooled timer and dropped by the duplicate cache — none of which outlives
// the call, so none of it may allocate.
func TestDuplicateRREQReceiveAllocatesNothing(t *testing.T) {
	auth := secrouting.NewCostModelAuth()
	auth.Enroll(0)
	auth.Enroll(1)
	s, _, ns := testNet(t, 2, Config{}, auth)
	req := &RREQ{ID: 1, Origin: 5, OriginSeq: 1, Dest: 9, TTL: 4, HopAuth: routing.HopAuth{Sender: 0}}
	req.Auth, _, _ = auth.Sign(0, req.AppendEncode(nil))
	receive := func() {
		ns[1].handleFrame(0, req)
		s.RunAll()
	}
	receive() // the first copy: processed, forwarded
	if st := ns[1].Stats; st.RREQForwarded != 1 || st.AuthRejected != 0 {
		t.Fatalf("first copy: forwarded=%d rejected=%d, want 1/0", st.RREQForwarded, st.AuthRejected)
	}
	if allocs := testing.AllocsPerRun(100, receive); allocs != 0 {
		t.Fatalf("a verified duplicate RREQ allocates %.1f times, want 0", allocs)
	}
	if st := ns[1].Stats; st.RREQForwarded != 1 || st.AuthRejected != 0 {
		t.Fatalf("duplicates: forwarded=%d rejected=%d, want 1/0", st.RREQForwarded, st.AuthRejected)
	}
	// The duplicates really were verified: the same frame with one field
	// changed after signing is rejected.
	req.HopCount++
	receive()
	if ns[1].Stats.AuthRejected != 1 {
		t.Fatalf("tampered copy: rejected=%d, want 1", ns[1].Stats.AuthRejected)
	}
}
