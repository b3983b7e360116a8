package dsr

import (
	"slices"
	"time"

	"mccls/internal/radio"
	"mccls/internal/routing"
	"mccls/internal/sim"
)

// The DSR protocol parameters.
const (
	// requestTTL bounds discovery floods in hops.
	requestTTL = 12
	// retries is how many times a failed discovery repeats.
	retries = 2
	// discoveryTimeout is the wait per attempt.
	discoveryTimeout = time.Second
	// forwardJitterMax is the uniform delay before re-flooding a request —
	// the window the rushing attack exploits, as in AODV.
	forwardJitterMax = 25 * time.Millisecond
	// dataTTL bounds source routes in hops.
	dataTTL = 32
	// sendBufferCap bounds buffered packets per destination.
	sendBufferCap = 64
)

// Hooks customize behaviour for attacks and fault injection.
type Hooks struct {
	// OnRequest runs after duplicate suppression and authentication;
	// return false to suppress default processing. req and its Route are
	// shared by every receiver of the broadcast: read, do not modify.
	OnRequest func(n *Node, from int, req *RouteRequest) bool
	// FilterData is consulted before forwarding; return false to absorb.
	FilterData func(n *Node, pkt *DataPacket) bool
	// ForwardJitter overrides the re-flood jitter draw.
	ForwardJitter func(n *Node) time.Duration
}

// Node is one DSR router plus its application endpoint. Identity, the
// authenticated send/receive path, the crash lifecycle and Stats come from
// the embedded routing.Agent (requests, replies and errors are counted in
// its RREQ*/RREP*/RERRSent slots).
type Node struct {
	routing.Agent

	reqID uint32
	cache map[int][]int // best known source route per destination
	seen  map[uint64]bool
	disc  *routing.Discovery[*DataPacket]

	Hooks Hooks
}

// NewNode creates a DSR agent and registers it with the medium. The same
// authenticators that secure AODV plug in unchanged.
func NewNode(id int, s *sim.Simulator, medium *radio.Medium, auth routing.Authenticator) *Node {
	n := &Node{
		Agent: routing.Agent{ID: id, Sim: s, Medium: medium, Auth: auth},
		cache: make(map[int][]int),
		seen:  make(map[uint64]bool),
	}
	n.disc = routing.NewDiscovery[*DataPacket](&n.Agent, sendBufferCap, retries, n.issueRequest)
	n.Process = n.processControl
	medium.SetHandler(id, n.handleFrame)
	return n
}

// Down crashes the node (see routing.Agent.Crash); buffered data and pending
// discoveries are lost with the process. Returns false if it was already
// down.
func (n *Node) Down() bool {
	if !n.Crash() {
		return false
	}
	n.disc.Reset()
	return true
}

// Up restarts a crashed node, keeping the route cache with retainRoutes and
// flushing it with the duplicate table otherwise. Returns false if the node
// was not down.
func (n *Node) Up(retainRoutes bool) bool {
	if !n.Restart() {
		return false
	}
	if !retainRoutes {
		n.cache = make(map[int][]int)
		n.seen = make(map[uint64]bool)
	}
	return true
}

// cacheRoute keeps the shortest known route per destination. Routes start
// at n.ID.
func (n *Node) cacheRoute(route []int) {
	if len(route) < 2 || route[0] != n.ID {
		return
	}
	dest := route[len(route)-1]
	if cur, ok := n.cache[dest]; ok && len(cur) <= len(route) {
		return
	}
	n.cache[dest] = slices.Clone(route)
}

// purgeLink removes every cached route using the broken link a→b.
func (n *Node) purgeLink(a, b int) {
	for dest, route := range n.cache {
		for i := 0; i+1 < len(route); i++ {
			if route[i] == a && route[i+1] == b {
				delete(n.cache, dest)
				break
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Application interface

// Send originates a data packet toward dst, discovering a route first if
// none is cached.
func (n *Node) Send(dst, bytes int) {
	if !n.Originate() {
		return
	}
	pkt := &DataPacket{Bytes: bytes, SentAt: n.Sim.Now()}
	if dst == n.ID {
		n.Delivered(pkt.SentAt)
		return
	}
	if route, ok := n.cache[dst]; ok {
		pkt.Route, pkt.Idx = slices.Clone(route), 0
		n.transmitData(pkt)
		return
	}
	n.disc.Enqueue(dst, pkt)
	n.disc.Start(dst)
}

// transmitData unicasts the packet to the next hop of its source route. A
// send failure at the originator re-buffers the packet and rediscovers (the
// RFC's send-buffer retransmission); mid-path failures drop the packet and
// report the broken link back toward the source.
func (n *Node) transmitData(pkt *DataPacket) {
	next := pkt.Route[pkt.Idx+1]
	if !n.Medium.Unicast(n.ID, next, pkt.Bytes+dataWireOverhead+perHopWireSize*len(pkt.Route), pkt) {
		n.purgeLink(n.ID, next)
		if pkt.Idx == 0 {
			dst := pkt.Route[len(pkt.Route)-1]
			pkt.Route, pkt.Idx = nil, 0
			n.disc.Enqueue(dst, pkt)
			n.disc.Start(dst)
			return
		}
		n.Stats.DropLinkBreak++
		if n.Transmit(pkt.Route[pkt.Idx-1], errorWireSize, &RouteError{From: n.ID, To: next}) {
			n.Stats.RERRSent++
		}
	}
}

// ---------------------------------------------------------------------------
// Discovery

// issueRequest floods one route request for dst; every attempt searches the
// whole network and waits the same DiscoveryTimeout.
func (n *Node) issueRequest(dst, _ int) time.Duration {
	n.reqID++
	req := &RouteRequest{
		ID:     n.reqID,
		Origin: n.ID,
		Target: dst,
		Route:  []int{n.ID},
		TTL:    requestTTL,
	}
	n.seen[routing.FloodKey(n.ID, req.ID)] = true
	n.broadcastRequest(req)
	return discoveryTimeout
}

func (n *Node) broadcastRequest(req *RouteRequest) {
	n.Transmit(routing.Broadcast, req.wireSize(), req)
}

// SendReply signs a route reply as this node and unicasts it to the given
// next hop. Exported for attack behaviours.
func (n *Node) SendReply(to int, rep *RouteReply) {
	n.Transmit(to, rep.wireSize(), rep)
}

// ---------------------------------------------------------------------------
// Receive path

// handleFrame dispatches frames delivered by the medium; control packets
// come back, authenticated, to processControl. Receivers of a broadcast
// share one message value and its Route, so whoever mutates either copies.
func (n *Node) handleFrame(from int, payload any) {
	if !n.Listening() {
		return
	}
	switch msg := payload.(type) {
	case *DataPacket:
		cp := *msg
		cp.Route = slices.Clone(msg.Route)
		n.processData(&cp)
	case routing.Packet:
		n.Receive(from, msg)
	}
}

// processControl dispatches an authenticated control packet.
func (n *Node) processControl(from int, msg routing.Packet) {
	switch msg := msg.(type) {
	case *RouteRequest:
		n.processRequest(from, msg)
	case *RouteReply:
		n.processReply(msg)
	case *RouteError:
		n.purgeLink(msg.From, msg.To)
	}
}

func (n *Node) processRequest(from int, req *RouteRequest) {
	if slices.Contains(req.Route, n.ID) {
		return // loop (or our own flood echoed)
	}
	key := routing.FloodKey(req.Origin, req.ID)
	if n.seen[key] {
		return
	}
	n.seen[key] = true
	if len(n.seen) > 8192 {
		n.seen = make(map[uint64]bool) // coarse reset; ids keep growing
	}

	if n.Hooks.OnRequest != nil && !n.Hooks.OnRequest(n, from, req) {
		return
	}

	walked := append(slices.Clone(req.Route), n.ID)
	// Cache the reverse path this request just demonstrated (self → origin).
	rev := slices.Clone(walked)
	slices.Reverse(rev)
	n.cacheRoute(rev)

	if req.Target == n.ID {
		n.Stats.RREPOriginated++
		n.SendReply(from, &RouteReply{Route: walked})
		return
	}
	if req.TTL <= 1 {
		return
	}
	fwd := *req
	fwd.Route = walked
	fwd.TTL--
	n.Stats.RREQForwarded++
	n.Schedule(n.drawJitter(), func() { n.broadcastRequest(&fwd) })
}

func (n *Node) drawJitter() time.Duration {
	if n.Hooks.ForwardJitter != nil {
		return n.Hooks.ForwardJitter(n)
	}
	return n.Jitter(forwardJitterMax)
}

func (n *Node) processReply(rep *RouteReply) {
	idx := slices.Index(rep.Route, n.ID)
	if idx < 0 {
		return // not on the path; stray
	}
	// Cache the forward suffix (self → target).
	n.cacheRoute(rep.Route[idx:])
	if idx == 0 {
		// We are the originator: discovery complete.
		dst := rep.Route[len(rep.Route)-1]
		n.disc.Complete(dst)
		route, ok := n.cache[dst]
		if !ok {
			return
		}
		// Flush takes the queue out first: a first-hop failure below puts
		// the packet back in the buffer, and it must stay there.
		for _, pkt := range n.disc.Flush(dst) {
			pkt.Route, pkt.Idx = slices.Clone(route), 0
			n.transmitData(pkt)
		}
		return
	}
	n.Stats.RREPForwarded++
	fwd := *rep
	n.SendReply(rep.Route[idx-1], &fwd)
}

func (n *Node) processData(pkt *DataPacket) {
	idx := slices.Index(pkt.Route, n.ID)
	if idx < 0 || idx != pkt.Idx+1 {
		return // misrouted frame
	}
	pkt.Idx = idx
	if idx == len(pkt.Route)-1 {
		n.Delivered(pkt.SentAt)
		return
	}
	if len(pkt.Route) > dataTTL {
		n.Stats.DropNoRoute++
		return
	}
	if n.Hooks.FilterData != nil && !n.Hooks.FilterData(n, pkt) {
		n.Stats.DropByAttacker++
		return
	}
	n.Stats.DataForwarded++
	n.transmitData(pkt)
}
