// Package dsr implements Dynamic Source Routing (Johnson & Maltz), the
// other reactive MANET protocol the paper's cited security work targets
// (Xu, Mu & Susilo [12] secure both AODV and DSR). It exists to show the
// McCLS routing-authentication layer generalizes beyond AODV: the same
// hop-by-hop Authenticator neutralizes the same black hole and rushing
// attacks here. The Authenticator, the sign/verify path, the crash
// lifecycle, the discovery retry machine and Stats are package routing's;
// this package is what is DSR-specific.
//
// The implementation covers the DSR core: route discovery with accumulated
// source routes, route caching (including caching of overheard reverse
// paths), route replies traversing the discovered path, source-routed data
// forwarding, and route-error maintenance with cache purging. Promiscuous
// overhearing and packet salvaging are omitted; neither affects the attack
// experiments.
package dsr

import (
	"time"

	"mccls/internal/routing"
)

// Message kinds, used in canonical encodings.
const (
	kindRequest = 11
	kindReply   = 12
	kindError   = 13
)

// Wire sizes (protocol header plus IP/MAC framing); the accumulated route
// adds 4 bytes per hop. Authenticated variants add Authenticator.Overhead().
const (
	requestWireSize  = 44
	replyWireSize    = 40
	errorWireSize    = 40
	dataWireOverhead = 52
	perHopWireSize   = 4
)

// RouteRequest floods toward the target, accumulating the traversed path.
type RouteRequest struct {
	ID     uint32
	Origin int
	Target int
	// Route is the path walked so far, Origin first; the transmitting
	// node has already appended itself.
	Route []int
	TTL   int
	routing.HopAuth
}

// RouteReply carries the complete discovered route back to the originator.
type RouteReply struct {
	// Route is the full path Origin … Target.
	Route []int
	routing.HopAuth
}

// RouteError reports a broken link (From → To) back toward the originator
// of the affected packet.
type RouteError struct {
	From, To int
	routing.HopAuth
}

// DataPacket is a source-routed application payload.
type DataPacket struct {
	Route  []int // full path, source first
	Idx    int   // index of the current holder within Route
	Bytes  int
	SentAt time.Duration
}

func appendRoute(dst []byte, route []int) []byte {
	dst = routing.AppendInt(dst, len(route))
	for _, hop := range route {
		dst = routing.AppendInt(dst, hop)
	}
	return dst
}

// AppendEncode appends the canonical byte encoding of the request
// (everything except Auth); the accumulated route is covered, so an attacker
// cannot splice itself in or out of a path it relays.
func (r *RouteRequest) AppendEncode(dst []byte) []byte {
	dst = append(dst, kindRequest)
	dst = routing.AppendInt(dst, int(r.ID))
	dst = routing.AppendInt(dst, r.Origin)
	dst = routing.AppendInt(dst, r.Target)
	dst = appendRoute(dst, r.Route)
	dst = routing.AppendInt(dst, r.TTL)
	return routing.AppendInt(dst, r.Sender)
}

// AppendEncode appends the canonical byte encoding of the reply.
func (r *RouteReply) AppendEncode(dst []byte) []byte {
	dst = append(dst, kindReply)
	dst = appendRoute(dst, r.Route)
	return routing.AppendInt(dst, r.Sender)
}

// AppendEncode appends the canonical byte encoding of the error report.
func (r *RouteError) AppendEncode(dst []byte) []byte {
	dst = append(dst, kindError)
	dst = routing.AppendInt(dst, r.From)
	dst = routing.AppendInt(dst, r.To)
	return routing.AppendInt(dst, r.Sender)
}

// wireSize helpers account for the variable-length route (authentication
// overhead excluded).
func (r *RouteRequest) wireSize() int {
	return requestWireSize + perHopWireSize*len(r.Route)
}

func (r *RouteReply) wireSize() int {
	return replyWireSize + perHopWireSize*len(r.Route)
}
