// Package attack implements the two adversaries of the paper's evaluation
// as behaviour overlays on AODV and DSR nodes: each sets the substrate's
// SkipVerify (routing.Agent) and the protocol's typed hooks.
//
// Black hole (Marti et al. [8]): the attacker answers every route request
// with a forged route reply advertising an artificially fresh sequence
// number and a one-hop path, attracting the flow, then silently absorbs all
// data routed through it.
//
// Rushing (Hu, Perrig & Johnson [6]): the attacker forwards the first copy
// of every route request immediately — skipping the randomized rebroadcast
// jitter and any verification work honest nodes perform — so that, because
// nodes only process the first copy of each request, discovered routes are
// forced through the attacker; it then drops the data.
//
// Neither attacker holds a KGC-issued key, so under McCLS-AODV its forged
// replies and rushed forwards fail hop-by-hop verification at honest
// neighbours and it never joins a route.
package attack

import (
	"math/rand"
	"slices"
	"time"

	"mccls/internal/aodv"
	"mccls/internal/dsr"
)

// seqBoost is how far a black hole inflates the destination sequence number
// beyond the freshest value the requester knows. A boost of 1 is enough to
// beat any cached route while keeping the forgery in the race the real
// destination can still win on hop count (a huge boost would also be a
// trivially detectable anomaly); Marti et al.'s attacker "falsely claims a
// fresh route", not an absurd one.
const seqBoost = 1

// absorb is the FilterData hook shared by both attackers: silently drop
// every transiting data packet.
func absorb(*aodv.Node, *aodv.DataPacket) bool { return false }

// MakeBlackhole converts n into a black hole attacker.
func MakeBlackhole(n *aodv.Node) {
	n.SkipVerify = true // attackers do not validate what they hear
	n.Hooks.FilterData = absorb
	n.Hooks.OnRREQ = func(n *aodv.Node, from int, req *aodv.RREQ) bool {
		// Forge a reply claiming a fresh one-hop route to the requested
		// destination, regardless of whether any such route exists.
		n.SendRREP(from, &aodv.RREP{
			Origin:   req.Origin,
			Dest:     req.Dest,
			DestSeq:  req.DestSeq + seqBoost,
			HopCount: 2, // a plausible short path, not a giveaway 1-hop claim
			Lifetime: n.MyRouteTimeout(),
		})
		return false // and do not participate in honest forwarding
	}
}

// MakeGrayhole converts n into a gray hole (selective-forwarding)
// attacker: it participates in routing honestly but silently drops a
// fraction dropProb of the data it carries, staying below naive detection
// thresholds. An extension beyond the paper's two attacks, included to
// delimit McCLS's protection: an *outsider* gray hole (no KGC key) never
// joins a route, but a compromised *insider* still signs valid control
// packets, so routing authentication alone does not stop it — a finding
// later misbehaviour-detection literature (watchdog/pathrater) addresses.
func MakeGrayhole(n *aodv.Node, dropProb float64, rng *rand.Rand) {
	n.Hooks.FilterData = func(*aodv.Node, *aodv.DataPacket) bool {
		return rng.Float64() >= dropProb
	}
}

// MakeRushing converts n into a rushing attacker.
func MakeRushing(n *aodv.Node) {
	n.SkipVerify = true
	n.Hooks.FilterData = absorb
	// Zero jitter wins the duplicate-suppression race against honest
	// forwarders, which wait a uniform random delay plus (under McCLS)
	// the signature verification time.
	n.Hooks.RebroadcastJitter = func(*aodv.Node) time.Duration { return 0 }
}

// MakeDSRBlackhole converts a DSR node into a black hole: it answers every
// route request with a forged reply claiming a direct link to the target,
// then absorbs the attracted traffic.
func MakeDSRBlackhole(n *dsr.Node) {
	n.SkipVerify = true
	n.Hooks.FilterData = func(*dsr.Node, *dsr.DataPacket) bool { return false }
	n.Hooks.OnRequest = func(n *dsr.Node, from int, req *dsr.RouteRequest) bool {
		forged := append(slices.Clone(req.Route), n.ID, req.Target)
		n.SendReply(from, &dsr.RouteReply{Route: forged})
		return false
	}
}

// MakeDSRRushing converts a DSR node into a rushing attacker: it forwards
// the first copy of every route request with zero jitter (winning the
// duplicate-suppression race and inserting itself into the discovered
// source route), then drops the data.
func MakeDSRRushing(n *dsr.Node) {
	n.SkipVerify = true
	n.Hooks.FilterData = func(*dsr.Node, *dsr.DataPacket) bool { return false }
	n.Hooks.ForwardJitter = func(*dsr.Node) time.Duration { return 0 }
}
