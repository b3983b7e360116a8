package aodv

import (
	"time"

	"mccls/internal/radio"
	"mccls/internal/routing"
	"mccls/internal/sim"
)

// Protocol constants, following RFC 3561 scaled to the paper's 20-node
// field.
const (
	// nodeTraversalTime is the per-hop latency estimate that sizes
	// discovery timeouts.
	nodeTraversalTime = 40 * time.Millisecond
	// rreqRetries is how many times a failed discovery is retried.
	rreqRetries = 2
	// ttlIncrement widens the expanding-ring search between attempts.
	ttlIncrement = 2
	// ttlThreshold is the widest ring; past it the search floods
	// netDiameter, the network's bound in hops, at once.
	ttlThreshold = 7
	netDiameter  = 12
	// activeRouteTimeout is the lifetime of a route refreshed by use; a
	// destination advertises twice that in its own RREPs.
	activeRouteTimeout = 3 * time.Second
	// sendBufferCap bounds the packets buffered per destination during
	// discovery.
	sendBufferCap = 64
)

// Config holds the AODV parameters a scenario varies. Zero values select
// the defaults, which follow RFC 3561 scaled to the paper's 20-node field.
type Config struct {
	// TTLStart is the first ring of the expanding-ring search (default 2).
	// Each retry widens the ring by 2; once it passes 7 the search floods
	// the network.
	TTLStart int
	// RebroadcastJitterMax is the maximum uniform delay before
	// rebroadcasting an RREQ (default 25ms, the flood-damping delay AODV
	// implementations add to reduce broadcast collisions). This
	// randomized delay is the lever the rushing attack exploits: an
	// attacker that forwards with zero jitter wins the
	// duplicate-suppression race.
	RebroadcastJitterMax time.Duration

	// dataTTL is the hop limit on data packets (default 32), constant in
	// every run. It stays a field because TestDataTTLExpiry needs a TTL
	// below its 3-hop route.
	dataTTL int
}

func (c Config) withDefaults() Config {
	if c.TTLStart == 0 {
		c.TTLStart = 2
	}
	if c.RebroadcastJitterMax == 0 {
		c.RebroadcastJitterMax = 25 * time.Millisecond
	}
	if c.dataTTL == 0 {
		c.dataTTL = 32
	}
	return c
}

// ringTraversalTime is the discovery timeout for a given search TTL.
func ringTraversalTime(ttl int) time.Duration {
	return 2 * nodeTraversalTime * time.Duration(ttl+2)
}

// ringTTL is the expanding-ring search TTL of the given discovery attempt
// (counted from 1).
func (c Config) ringTTL(attempt int) int {
	ttl := c.TTLStart
	for i := 1; i < attempt; i++ {
		ttl += ttlIncrement
		if ttl > ttlThreshold {
			ttl = netDiameter
		}
	}
	return ttl
}

// Hooks customize node behaviour; the attack package uses them to implement
// the black hole and rushing adversaries, and tests use them for fault
// injection. Nil fields select default behaviour.
type Hooks struct {
	// OnRREQ runs after duplicate suppression and authentication. Return
	// false to suppress default RREQ processing. req is the frame every
	// receiver of the broadcast shares: read it, do not modify it.
	OnRREQ func(n *Node, from int, req *RREQ) bool
	// FilterData is consulted before forwarding a data packet. Return
	// false to silently absorb it (counted as DropByAttacker).
	FilterData func(n *Node, pkt *DataPacket) bool
	// RebroadcastJitter overrides the default uniform jitter draw.
	RebroadcastJitter func(n *Node) time.Duration
}

// routeEntry is one row of the routing table.
type routeEntry struct {
	nextHop  int
	hops     int
	destSeq  uint32
	validSeq bool
	expires  sim.Time
	valid    bool
}

func (e *routeEntry) usable(now sim.Time) bool {
	return e != nil && e.valid && e.expires > now
}

// Node is one AODV router plus its application endpoint. Identity, the
// authenticated send/receive path, the crash lifecycle and Stats come from
// the embedded routing.Agent.
type Node struct {
	routing.Agent
	cfg Config

	seq    uint32
	rreqID uint32

	routes map[int]*routeEntry
	seen   map[uint64]sim.Time
	// lastSeen is the key processRREQ last added to seen, while hasLast:
	// copies of one flood arrive back to back, so most duplicates match it
	// without a map lookup. Whatever removes keys from seen clears hasLast.
	lastSeen uint64
	hasLast  bool
	disc     *routing.Discovery[*DataPacket]

	// Hooks customize behaviour (attacks, fault injection).
	Hooks Hooks
}

// NewNode creates an AODV agent for node id and registers it with the
// medium.
func NewNode(id int, s *sim.Simulator, medium *radio.Medium, cfg Config, auth routing.Authenticator) *Node {
	n := &Node{
		Agent:  routing.Agent{ID: id, Sim: s, Medium: medium, Auth: auth},
		cfg:    cfg.withDefaults(),
		routes: make(map[int]*routeEntry),
		seen:   make(map[uint64]sim.Time),
	}
	n.disc = routing.NewDiscovery[*DataPacket](&n.Agent, sendBufferCap, rreqRetries, n.issueRREQ)
	n.Process = n.processControl
	medium.SetHandler(id, n.handleFrame)
	return n
}

// MyRouteTimeout is the route lifetime the node advertises in its own RREPs.
func (n *Node) MyRouteTimeout() time.Duration { return 2 * activeRouteTimeout }

// seqNewer reports whether a is strictly fresher than b under RFC 3561
// rollover arithmetic.
func seqNewer(a, b uint32) bool { return int32(a-b) > 0 }

// ---------------------------------------------------------------------------
// Crash/restart lifecycle (fault injection)

// Down crashes the node (see routing.Agent.Crash): buffered data and
// pending discoveries are lost with the process. Routing state is kept in
// memory so Up can choose to retain or flush it. Returns false if the node
// was already down.
func (n *Node) Down() bool {
	if !n.Crash() {
		return false
	}
	n.disc.Reset()
	return true
}

// Up restarts a crashed node. With retainRoutes the routing table survives
// (modelling persisted state, which deliberately leaves stale routes for the
// RERR machinery to discover); without it the table and duplicate cache are
// flushed, as after a cold boot. The sequence number is kept monotonic
// either way (RFC 3561 §6.1 requires it survive reboots, else the node's
// own RREPs would lose every freshness comparison). Returns false if the
// node was not down.
func (n *Node) Up(retainRoutes bool) bool {
	if !n.Restart() {
		return false
	}
	if !retainRoutes {
		n.routes = make(map[int]*routeEntry)
		n.seen = make(map[uint64]sim.Time)
		n.hasLast = false
	}
	return true
}

// ---------------------------------------------------------------------------
// Routing table

// updateRoute applies the RFC route-update rules and returns whether the
// entry was replaced.
func (n *Node) updateRoute(dest, nextHop, hops int, seq uint32, seqKnown bool, lifetime time.Duration) bool {
	now := n.Sim.Now()
	e := n.routes[dest]
	if e == nil {
		n.routes[dest] = &routeEntry{
			nextHop: nextHop, hops: hops, destSeq: seq, validSeq: seqKnown,
			expires: now + lifetime, valid: true,
		}
		return true
	}
	accept := false
	switch {
	case !e.usable(now):
		accept = true
	case seqKnown && e.validSeq && seqNewer(seq, e.destSeq):
		accept = true
	case seqKnown && e.validSeq && seq == e.destSeq && hops < e.hops:
		accept = true
	case seqKnown && !e.validSeq:
		accept = true
	case !seqKnown:
		// Only refresh the lifetime of the same path.
		if e.nextHop == nextHop && hops >= e.hops {
			if exp := now + lifetime; exp > e.expires {
				e.expires = exp
			}
		}
	}
	if !accept {
		return false
	}
	e.nextHop, e.hops, e.expires, e.valid = nextHop, hops, now+lifetime, true
	if seqKnown {
		e.destSeq, e.validSeq = seq, true
	}
	return true
}

// route returns the usable routing entry for dest, or nil.
func (n *Node) route(dest int) *routeEntry {
	e := n.routes[dest]
	if !e.usable(n.Sim.Now()) {
		return nil
	}
	return e
}

// touch refreshes the lifetime of an active route.
func (n *Node) touch(dest int) {
	if e := n.route(dest); e != nil {
		if exp := n.Sim.Now() + activeRouteTimeout; exp > e.expires {
			e.expires = exp
		}
	}
}

// invalidateVia marks every route using hop as next hop invalid and returns
// the affected destinations with incremented sequence numbers.
func (n *Node) invalidateVia(hop int) []UnreachableDest {
	var out []UnreachableDest
	for dest, e := range n.routes {
		if e.valid && e.nextHop == hop {
			e.valid = false
			e.destSeq++
			out = append(out, UnreachableDest{Dest: dest, DestSeq: e.destSeq})
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Application interface

// Send originates a data packet of the given payload size toward dst,
// buffering it and starting route discovery if necessary.
func (n *Node) Send(dst, bytes int) {
	if !n.Originate() {
		return
	}
	pkt := &DataPacket{
		Src:    n.ID,
		Dst:    dst,
		Bytes:  bytes,
		SentAt: n.Sim.Now(),
		TTL:    n.cfg.dataTTL,
	}
	if dst == n.ID {
		n.Delivered(pkt.SentAt)
		return
	}
	if e := n.route(dst); e != nil {
		n.transmitData(pkt, e)
		return
	}
	n.disc.Enqueue(dst, pkt)
	n.disc.Start(dst)
}

// transmitData unicasts a data packet along a routing entry, handling
// link-break detection.
func (n *Node) transmitData(pkt *DataPacket, e *routeEntry) {
	if !n.Medium.Unicast(n.ID, e.nextHop, pkt.Bytes+dataWireOverhead, pkt) {
		n.linkBroken(e.nextHop)
		n.Stats.DropLinkBreak++
		return
	}
	n.touch(pkt.Dst)
	n.touch(e.nextHop)
}

// linkBroken invalidates routes through a dead neighbor and advertises the
// breakage.
func (n *Node) linkBroken(hop int) {
	if lost := n.invalidateVia(hop); len(lost) > 0 {
		n.sendRERR(lost)
	}
}

// ---------------------------------------------------------------------------
// Discovery

// issueRREQ broadcasts one RREQ round for dst and returns how long the
// discovery machine waits before the next; the expanding-ring search lives
// here, as a TTL that grows with the attempt number.
func (n *Node) issueRREQ(dst, attempt int) time.Duration {
	ttl := n.cfg.ringTTL(attempt)
	n.seq++
	n.rreqID++
	req := &RREQ{
		ID:        n.rreqID,
		Origin:    n.ID,
		OriginSeq: n.seq,
		Dest:      dst,
		HopCount:  0,
		TTL:       ttl,
	}
	if e := n.routes[dst]; e != nil && e.validSeq {
		req.DestSeq, req.SeqKnown = e.destSeq, true
	}
	// Suppress our own flooded copy.
	n.seen[routing.FloodKey(n.ID, req.ID)] = n.Sim.Now()
	n.sendRREQ(req)
	return ringTraversalTime(ttl)
}

// discoveryComplete flushes the send buffer once a route to dst appears.
func (n *Node) discoveryComplete(dst int) {
	n.disc.Complete(dst)
	e := n.route(dst)
	if e == nil {
		return
	}
	for _, pkt := range n.disc.Flush(dst) {
		n.transmitData(pkt, e)
	}
}

// ---------------------------------------------------------------------------
// Control-packet transmission

// sendRREQ signs and broadcasts an RREQ as this node.
func (n *Node) sendRREQ(req *RREQ) {
	n.Transmit(routing.Broadcast, rreqWireSize, req)
}

// SendRREP signs an RREP as this node and unicasts it to the given next
// hop. Exported because attack behaviours forge replies through it.
func (n *Node) SendRREP(to int, rep *RREP) bool {
	if !n.Medium.InRange(n.ID, to) {
		n.linkBroken(to)
		return false
	}
	return n.Transmit(to, rrepWireSize, rep)
}

// sendRERR signs and broadcasts a route-error report.
func (n *Node) sendRERR(lost []UnreachableDest) {
	rerr := &RERR{Unreachable: lost}
	if n.Transmit(routing.Broadcast, rerr.wireSize(), rerr) {
		n.Stats.RERRSent++
	}
}

// ---------------------------------------------------------------------------
// Receive path

// handleFrame dispatches frames delivered by the medium; control packets
// come back, authenticated, to processControl. Broadcast frames share one
// message value among receivers, so whoever mutates or retains it copies.
func (n *Node) handleFrame(from int, payload any) {
	if !n.Listening() {
		return
	}
	switch msg := payload.(type) {
	case *DataPacket:
		cp := *msg
		n.processData(from, &cp)
	case routing.Packet:
		n.Receive(from, msg)
	}
}

// processControl dispatches an authenticated control packet.
func (n *Node) processControl(from int, msg routing.Packet) {
	switch msg := msg.(type) {
	case *RREQ:
		n.processRREQ(from, msg)
	case *RREP:
		n.processRREP(from, msg)
	case *RERR:
		n.processRERR(from, msg)
	}
}

// processRREQ implements RFC 3561 §6.5.
func (n *Node) processRREQ(from int, req *RREQ) {
	if req.Origin == n.ID {
		return // our own flood echoed back
	}
	key := routing.FloodKey(req.Origin, req.ID)
	if n.hasLast && key == n.lastSeen {
		return
	}
	if _, dup := n.seen[key]; dup {
		return
	}
	n.seen[key] = n.Sim.Now()
	n.pruneSeen()
	n.lastSeen, n.hasLast = key, true

	if n.Hooks.OnRREQ != nil && !n.Hooks.OnRREQ(n, from, req) {
		return
	}

	// Reverse routes: to the previous hop and to the originator.
	n.updateRoute(from, from, 1, 0, false, activeRouteTimeout)
	n.updateRoute(req.Origin, from, req.HopCount+1, req.OriginSeq, true, activeRouteTimeout)

	if req.Dest == n.ID {
		// Destination replies. Keep our sequence number at least as
		// fresh as the request claims to know, and advance it so each
		// reply is strictly fresher than the last (RFC 3561 §6.6.1) —
		// without this, a forged reply with seq+1 would win every race.
		if req.SeqKnown && seqNewer(req.DestSeq, n.seq) {
			n.seq = req.DestSeq
		}
		n.seq++
		n.Stats.RREPOriginated++
		n.SendRREP(from, &RREP{
			Origin:   req.Origin,
			Dest:     n.ID,
			DestSeq:  n.seq,
			HopCount: 0,
			Lifetime: n.MyRouteTimeout(),
		})
		return
	}

	// A fresh-enough cached route answers for the destination, per the RFC;
	// the black hole attack abuses exactly this.
	if e := n.route(req.Dest); e != nil && e.validSeq &&
		(!req.SeqKnown || !seqNewer(req.DestSeq, e.destSeq)) {
		n.Stats.RREPOriginated++
		n.SendRREP(from, &RREP{
			Origin:   req.Origin,
			Dest:     req.Dest,
			DestSeq:  e.destSeq,
			HopCount: e.hops,
			Lifetime: e.expires - n.Sim.Now(),
		})
		return
	}

	if req.TTL <= 1 {
		return // ring boundary
	}
	fwd := *req
	fwd.HopCount++
	fwd.TTL--
	n.Stats.RREQForwarded++
	n.Schedule(n.drawJitter(), func() { n.sendRREQ(&fwd) })
}

// drawJitter picks the rebroadcast delay, honouring the hook.
func (n *Node) drawJitter() time.Duration {
	if n.Hooks.RebroadcastJitter != nil {
		return n.Hooks.RebroadcastJitter(n)
	}
	return n.Jitter(n.cfg.RebroadcastJitterMax)
}

// processRREP implements RFC 3561 §6.7.
func (n *Node) processRREP(from int, rep *RREP) {
	n.updateRoute(from, from, 1, 0, false, activeRouteTimeout)
	n.updateRoute(rep.Dest, from, rep.HopCount+1, rep.DestSeq, true, rep.Lifetime)

	if rep.Origin == n.ID {
		n.discoveryComplete(rep.Dest)
		return
	}
	// Forward along the reverse path.
	e := n.route(rep.Origin)
	if e == nil {
		return // reverse route evaporated; the originator will retry
	}
	fwd := *rep
	fwd.HopCount++
	n.Stats.RREPForwarded++
	n.SendRREP(e.nextHop, &fwd)
}

// processRERR invalidates routes that relied on the reporting neighbor and
// propagates the report if that changed anything.
func (n *Node) processRERR(from int, rerr *RERR) {
	var propagated []UnreachableDest
	for _, u := range rerr.Unreachable {
		e := n.routes[u.Dest]
		if e == nil || !e.valid || e.nextHop != from {
			continue
		}
		e.valid = false
		if seqNewer(u.DestSeq, e.destSeq) {
			e.destSeq = u.DestSeq
		}
		propagated = append(propagated, UnreachableDest{Dest: u.Dest, DestSeq: e.destSeq})
	}
	if len(propagated) > 0 {
		n.sendRERR(propagated)
	}
}

// processData forwards or delivers a routed data packet.
func (n *Node) processData(from int, pkt *DataPacket) {
	n.updateRoute(from, from, 1, 0, false, activeRouteTimeout)
	// An active flow keeps the path toward its source alive (RFC 3561 §6.2).
	n.touch(pkt.Src)
	if pkt.Dst == n.ID {
		n.Delivered(pkt.SentAt)
		return
	}
	if n.Hooks.FilterData != nil && !n.Hooks.FilterData(n, pkt) {
		n.Stats.DropByAttacker++
		return
	}
	pkt.TTL--
	if pkt.TTL <= 0 {
		n.Stats.DropTTLExpired++
		return
	}
	e := n.route(pkt.Dst)
	if e == nil {
		n.Stats.DropNoRoute++
		n.sendRERR([]UnreachableDest{{Dest: pkt.Dst, DestSeq: n.lastKnownSeq(pkt.Dst)}})
		return
	}
	n.Stats.DataForwarded++
	n.transmitData(pkt, e)
}

// lastKnownSeq returns the freshest sequence number recorded for dest.
func (n *Node) lastKnownSeq(dest int) uint32 {
	if e := n.routes[dest]; e != nil {
		return e.destSeq + 1
	}
	return 0
}

// pruneSeen bounds the duplicate-suppression cache.
func (n *Node) pruneSeen() {
	if len(n.seen) < 4096 {
		return
	}
	n.hasLast = false
	horizon := n.Sim.Now() - 2*ringTraversalTime(netDiameter)
	for k, at := range n.seen {
		if at < horizon {
			delete(n.seen, k)
		}
	}
}
