// Package aodv implements the Ad hoc On-Demand Distance Vector routing
// protocol (the RFC 3561 core: ring-search route discovery, reverse and
// forward path setup, sequence-numbered routes, intermediate-node replies,
// route maintenance with RERR, and data buffering during discovery) on top
// of the discrete-event simulator. It retains the mechanisms the paper
// lists — "route discovery, reverse path setup, forwarding path setup,
// route maintenance" — and exposes the hook points its evaluation needs:
// the pluggable control-packet routing.Authenticator (McCLS-AODV) and
// behaviour hooks for implementing the black hole and rushing attackers.
// Everything that is not AODV-specific — the sign/verify path, the crash
// lifecycle, the discovery retry machine and send buffer, Stats — comes
// from the routing.Agent every Node embeds.
//
// Simplifications relative to the full RFC, chosen because they do not
// affect the paper's metrics: no HELLO beacons (link breaks are detected by
// link-layer unicast failure), no precursor lists (RERRs are one-hop
// broadcast), and no local repair.
package aodv

import (
	"time"

	"mccls/internal/routing"
)

// Message kinds, used in canonical encodings.
const (
	kindRREQ = 1
	kindRREP = 2
	kindRERR = 3
)

// Wire sizes in bytes (protocol fields plus IP/MAC framing), matching the
// figures commonly used in AODV simulation studies. Authenticated variants
// add Authenticator.Overhead().
const (
	rreqWireSize     = 52
	rrepWireSize     = 48
	rerrWireSize     = 40
	dataWireOverhead = 52
)

// RREQ is a route request, flooded with an expanding TTL ring.
type RREQ struct {
	ID        uint32 // per-originator request id (duplicate suppression)
	Origin    int
	OriginSeq uint32
	Dest      int
	DestSeq   uint32 // last known destination sequence number
	SeqKnown  bool   // whether DestSeq is meaningful
	HopCount  int
	TTL       int
	routing.HopAuth
}

// RREP is a route reply, unicast hop-by-hop along the reverse path.
type RREP struct {
	Origin   int // the RREQ originator the reply travels to
	Dest     int // the destination the route is for
	DestSeq  uint32
	HopCount int
	Lifetime time.Duration
	routing.HopAuth
}

// RERR reports broken routes; one-hop broadcast by the node that detected
// the break.
type RERR struct {
	// Unreachable lists destinations now unreachable through the sender,
	// with their last known sequence numbers (incremented per the RFC).
	Unreachable []UnreachableDest
	routing.HopAuth
}

// UnreachableDest is one (destination, sequence) pair in a RERR.
type UnreachableDest struct {
	Dest    int
	DestSeq uint32
}

// DataPacket is an application payload being routed. Data packets are not
// signed (the paper authenticates routing control only).
type DataPacket struct {
	Src    int
	Dst    int
	Bytes  int // application payload size
	SentAt time.Duration
	TTL    int
}

// AppendEncode appends the canonical byte encoding of the RREQ as
// transmitted by Sender (everything except Auth). This is the payload
// authenticated hop-by-hop: it includes the mutable HopCount/TTL, so a
// forwarder signs exactly what it sends and tampering anywhere is detected
// at the next hop.
func (r *RREQ) AppendEncode(dst []byte) []byte {
	dst = append(dst, kindRREQ)
	dst = routing.AppendInt(dst, int(r.ID))
	dst = routing.AppendInt(dst, r.Origin)
	dst = routing.AppendInt(dst, int(r.OriginSeq))
	dst = routing.AppendInt(dst, r.Dest)
	dst = routing.AppendInt(dst, int(r.DestSeq))
	if r.SeqKnown {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = routing.AppendInt(dst, r.HopCount)
	dst = routing.AppendInt(dst, r.TTL)
	return routing.AppendInt(dst, r.Sender)
}

// AppendEncode appends the canonical byte encoding of the RREP (everything
// except Auth).
func (r *RREP) AppendEncode(dst []byte) []byte {
	dst = append(dst, kindRREP)
	dst = routing.AppendInt(dst, r.Origin)
	dst = routing.AppendInt(dst, r.Dest)
	dst = routing.AppendInt(dst, int(r.DestSeq))
	dst = routing.AppendInt(dst, r.HopCount)
	dst = routing.AppendInt(dst, int(r.Lifetime/time.Millisecond))
	return routing.AppendInt(dst, r.Sender)
}

// AppendEncode appends the canonical byte encoding of the RERR (everything
// except Auth).
func (r *RERR) AppendEncode(dst []byte) []byte {
	dst = append(dst, kindRERR)
	dst = routing.AppendInt(dst, len(r.Unreachable))
	for _, u := range r.Unreachable {
		dst = routing.AppendInt(dst, u.Dest)
		dst = routing.AppendInt(dst, int(u.DestSeq))
	}
	return routing.AppendInt(dst, r.Sender)
}

// wireSize returns the on-air size of the RERR before authentication
// overhead.
func (r *RERR) wireSize() int {
	return rerrWireSize + 12*max(0, len(r.Unreachable)-1)
}
