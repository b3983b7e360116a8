package aodv

import "mccls/internal/routing"

// HELLO beaconing (RFC 3561 §6.9): with Config.HelloInterval > 0, every
// node periodically broadcasts a one-hop HELLO; hearing any frame from a
// neighbor refreshes its liveness, and a neighbor silent for
// allowedHelloLoss intervals is declared lost, proactively invalidating
// routes through it instead of waiting for a unicast data failure.
//
// HELLOs are control packets: under McCLS-AODV they are signed and
// verified like RREQ/RREP, so an attacker cannot keep a phantom neighbor
// alive.

// Hello is a one-hop liveness beacon.
type Hello struct {
	Seq uint32
	routing.HopAuth
}

// helloWireSize is the on-air size of a HELLO before authentication
// overhead (an RREP-shaped packet per the RFC).
const helloWireSize = rrepWireSize

// AppendEncode appends the canonical byte encoding of the HELLO (everything
// except Auth).
func (h *Hello) AppendEncode(dst []byte) []byte {
	dst = append(dst, kindHello)
	dst = routing.AppendInt(dst, int(h.Seq))
	return routing.AppendInt(dst, h.Sender)
}

// startHello arms the beacon loop at a random phase, desynchronizing the
// nodes; NewNode and Up call it.
func (n *Node) startHello() {
	if n.cfg.HelloInterval > 0 {
		n.Schedule(n.Jitter(n.cfg.HelloInterval), n.helloLoop)
	}
}

// helloLoop emits one HELLO, sweeps for silent neighbors, and reschedules
// itself.
func (n *Node) helloLoop() {
	n.sendHello()
	n.sweepNeighbors()
	n.Schedule(n.cfg.HelloInterval, n.helloLoop)
}

// sendHello signs and broadcasts one beacon.
func (n *Node) sendHello() {
	if n.Transmit(routing.Broadcast, helloWireSize, &Hello{Seq: n.seq}) {
		n.Stats.HelloSent++
	}
}

// heard records liveness of a one-hop neighbor.
func (n *Node) heard(neighbor int) {
	if n.cfg.HelloInterval > 0 {
		n.lastHeard[neighbor] = n.Sim.Now()
	}
}

// sweepNeighbors declares neighbors lost after allowedHelloLoss silent
// intervals and tears down routes through them.
func (n *Node) sweepNeighbors() {
	deadline := allowedHelloLoss * n.cfg.HelloInterval
	now := n.Sim.Now()
	for neighbor, at := range n.lastHeard {
		if now-at <= deadline {
			continue
		}
		delete(n.lastHeard, neighbor)
		n.Stats.NeighborsLost++
		n.linkBroken(neighbor)
	}
}

// processHello refreshes the neighbor's liveness and hop-1 route.
func (n *Node) processHello(from int, h *Hello) {
	lifetime := allowedHelloLoss * n.cfg.HelloInterval
	if lifetime <= 0 {
		lifetime = n.cfg.activeRouteTimeout
	}
	n.updateRoute(from, from, 1, h.Seq, true, lifetime)
	n.heard(from)
}
