// Package routing is the substrate the reactive protocols (aodv, dsr) embed:
// everything about a routing agent that does not depend on what a route
// looks like. It owns the hop-by-hop authentication extension the paper
// evaluates — the only place a control packet is signed (Transmit) and the
// only place one is verified (Receive) — plus the crash/restart lifecycle
// with its pooled, epoch-guarded timers, the per-node counters, delivery
// accounting, the jitter draw, and the route-discovery retry machine with
// its bounded send buffer (Discovery).
//
// What a protocol keeps for itself, because sharing it would make this
// package branch on its caller: route table vs route cache, message types
// and their encodings, duplicate-suppression policy, and the typed behaviour
// hooks.
package routing

import (
	"encoding/binary"
	"fmt"
	"time"

	"mccls/internal/radio"
	"mccls/internal/sim"
)

// Authenticator authenticates routing control packets. Implementations live
// in package secrouting: the real McCLS signer/verifier and a calibrated
// cost model that injects the measured crypto latencies without doing the
// math (see DESIGN.md §1); NullAuth is the unauthenticated baseline.
type Authenticator interface {
	// Sign produces an authentication tag for payload as transmitted by
	// node, and reports the processing delay signing costs. A non-nil
	// error means no usable tag could be produced (e.g. the signer's
	// randomness source failed); the agent counts the failure and drops
	// the packet instead of transmitting an unverifiable tag. payload is
	// the agent's scratch buffer, here and in Verify: it must not be
	// retained past the call.
	Sign(node int, payload []byte) (auth []byte, delay time.Duration, err error)
	// Verify checks the tag produced by node over payload, and reports
	// the processing delay verification costs.
	Verify(node int, payload, auth []byte) (ok bool, delay time.Duration)
	// Overhead is the per-control-packet size increase in bytes.
	Overhead() int
}

// NullAuth is the no-op authenticator of the plain protocols: every packet
// passes, costs nothing and adds no bytes.
type NullAuth struct{}

var _ Authenticator = NullAuth{}

// Sign returns an empty tag at zero cost.
func (NullAuth) Sign(int, []byte) ([]byte, time.Duration, error) { return nil, 0, nil }

// Verify accepts everything at zero cost.
func (NullAuth) Verify(int, []byte, []byte) (bool, time.Duration) { return true, 0 }

// Overhead is zero.
func (NullAuth) Overhead() int { return 0 }

// Stats counts per-node protocol events, and is the one counter record of
// the evaluation: a run's result is the Add of its nodes' Stats, a sweep
// point's the Add of its repeats', and the paper's four metrics (§6) are
// the ratio methods below. DSR counts its route requests, replies and
// errors in the RREQ*/RREP*/RERRSent slots.
type Stats struct {
	DataSent      uint64 // originated by this node
	DataDelivered uint64 // received here as final destination
	DataForwarded uint64

	RREQInitiated  uint64
	RREQRetried    uint64
	RREQForwarded  uint64
	RREPOriginated uint64
	RREPForwarded  uint64
	RERRSent       uint64

	AuthRejected uint64 // control packets dropped for bad authentication
	SignFailures uint64 // control packets not sent because signing failed

	Crashes  uint64 // Down transitions (fault injection)
	Restarts uint64 // Up transitions

	DropNoRoute        uint64
	DropBufferOverflow uint64
	DropLinkBreak      uint64
	DropTTLExpired     uint64
	DropByAttacker     uint64 // data absorbed by this node acting maliciously
	DropNodeDown       uint64 // frames discarded because this node was down

	DelaySum   time.Duration // end-to-end, summed at this destination
	DelayCount uint64
}

// Add sums o into s, counter by counter: nodes into a run, repeats into a
// sweep point (whose ratios are thereby weighted by traffic volume).
func (s *Stats) Add(o Stats) {
	s.DataSent += o.DataSent
	s.DataDelivered += o.DataDelivered
	s.DataForwarded += o.DataForwarded
	s.RREQInitiated += o.RREQInitiated
	s.RREQRetried += o.RREQRetried
	s.RREQForwarded += o.RREQForwarded
	s.RREPOriginated += o.RREPOriginated
	s.RREPForwarded += o.RREPForwarded
	s.RERRSent += o.RERRSent
	s.AuthRejected += o.AuthRejected
	s.SignFailures += o.SignFailures
	s.Crashes += o.Crashes
	s.Restarts += o.Restarts
	s.DropNoRoute += o.DropNoRoute
	s.DropBufferOverflow += o.DropBufferOverflow
	s.DropLinkBreak += o.DropLinkBreak
	s.DropTTLExpired += o.DropTTLExpired
	s.DropByAttacker += o.DropByAttacker
	s.DropNodeDown += o.DropNodeDown
	s.DelaySum += o.DelaySum
	s.DelayCount += o.DelayCount
}

// PacketDeliveryRatio is packets received by destinations over packets sent
// by sources, in [0, 1]; 0 when nothing was sent.
func (s Stats) PacketDeliveryRatio() float64 {
	if s.DataSent == 0 {
		return 0
	}
	return float64(s.DataDelivered) / float64(s.DataSent)
}

// RREQRatio is RREQs initiated, forwarded and retried over data packets
// sent and forwarded: the paper's control-overhead metric.
func (s Stats) RREQRatio() float64 {
	denom := s.DataSent + s.DataForwarded
	if denom == 0 {
		return 0
	}
	return float64(s.RREQInitiated+s.RREQForwarded+s.RREQRetried) / float64(denom)
}

// EndToEndDelay is the mean source→destination latency of delivered
// packets; 0 when nothing was delivered.
func (s Stats) EndToEndDelay() time.Duration {
	if s.DelayCount == 0 {
		return 0
	}
	return s.DelaySum / time.Duration(s.DelayCount)
}

// PacketDropRatio is packets discarded by attack nodes over packets sent by
// all sources.
func (s Stats) PacketDropRatio() float64 {
	if s.DataSent == 0 {
		return 0
	}
	return float64(s.DropByAttacker) / float64(s.DataSent)
}

// Headline renders the four metrics on one line. It is deliberately not
// String: a record embedding Stats must print every field under %+v.
func (s Stats) Headline() string {
	return fmt.Sprintf("PDR=%.3f RREQratio=%.3f delay=%v dropRatio=%.3f (sent=%d delivered=%d attackerDrops=%d)",
		s.PacketDeliveryRatio(), s.RREQRatio(), s.EndToEndDelay(), s.PacketDropRatio(),
		s.DataSent, s.DataDelivered, s.DropByAttacker)
}

// Broadcast is the Transmit destination that addresses every neighbour.
const Broadcast = -1

// Packet is a routing control packet as the agent sees it: a canonical
// encoding to sign and verify, and the hop header the result travels in.
type Packet interface {
	// AppendEncode appends the packet's canonical encoding — everything
	// except the authentication tag, Sender included — to dst.
	AppendEncode(dst []byte) []byte
	Hop() *HopAuth
}

// HopAuth is the hop-by-hop authentication header every control packet
// embeds. Transmit fills it in; Receive checks it.
type HopAuth struct {
	// Sender is the transmitting node of this hop (hop-by-hop
	// authentication covers the transmitter, not just the originator).
	Sender int
	// Auth is Sender's authentication tag over AppendEncode.
	Auth []byte
}

// Hop gives every type that embeds a HopAuth that half of Packet.
func (h *HopAuth) Hop() *HopAuth { return h }

// AppendInt appends the low 32 bits of v, big-endian: the one integer
// format of every control packet's canonical encoding.
func AppendInt(dst []byte, v int) []byte {
	return binary.BigEndian.AppendUint32(dst, uint32(v))
}

// FloodKey packs a flooded request's (origin, id) into one word, so the
// protocols' duplicate caches take the runtime's 64-bit map path.
func FloodKey(origin int, id uint32) uint64 { return uint64(uint32(origin))<<32 | uint64(id) }

// Agent is the protocol-independent half of a routing node. Protocols embed
// it by value and fill the exported fields at construction.
type Agent struct {
	// ID is the node's address (its index in the medium).
	ID     int
	Sim    *sim.Simulator
	Medium *radio.Medium
	Auth   Authenticator
	// Process handles a control packet Receive has authenticated; msg is
	// the frame every receiver of a broadcast shares, so Process copies
	// before it mutates or retains.
	Process func(from int, msg Packet)

	// SkipVerify disables authentication checks on received control
	// packets (an attacker does not care whether packets verify).
	SkipVerify bool
	// Stats accumulates protocol counters.
	Stats Stats

	// down marks a crashed node; epoch invalidates every timer armed
	// before the crash (the event queue has no unschedule, so a timer
	// re-checks the epoch it was armed in and falls through).
	down  bool
	epoch uint64

	free []*timer // fired timers, ready to be armed again
	enc  []byte   // scratch for the encoding being signed or verified
}

// timer is a pooled event record for anything the node does after a delay:
// Schedule's callback, Receive's verification, Transmit's signature. It
// carries the epoch it was armed in and rejoins the free list when it fires.
type timer struct {
	a     *Agent
	epoch uint64
	do    job
	fn    func() // doCall
	msg   Packet // doProcess, doSend
	peer  int    // doProcess: the one-hop sender; doSend: the destination
	size  int    // doSend: on-air bytes
}

type job uint8

const (
	doCall    job = iota // run fn
	doProcess            // hand an accepted packet to Process
	doReject             // count a packet that failed verification
	doSend               // put a signed packet on the air
)

// Fire runs the timer's job unless the node crashed after it was armed: a
// timer or in-flight reception that straddles a crash is dropped silently,
// a rejection uncounted. The record is recycled first, so a job that arms
// the next timer gets this one back.
func (t *timer) Fire() {
	a, j := t.a, *t
	t.fn, t.msg = nil, nil
	a.free = append(a.free, t)
	if a.epoch != j.epoch || a.down {
		return
	}
	switch j.do {
	case doCall:
		j.fn()
	case doProcess:
		a.Process(j.peer, j.msg)
	case doReject:
		a.Stats.AuthRejected++
	case doSend:
		if j.peer == Broadcast {
			a.Medium.Broadcast(a.ID, j.size, j.msg)
		} else {
			a.Medium.Unicast(a.ID, j.peer, j.size, j.msg)
		}
	}
}

// arm schedules j after d of virtual time, tagged with the node's current
// epoch. All node-internal timers (discovery retries, sign/verify delays,
// rebroadcast jitter) go through it. The authenticator's
// delays are constants, so its jobs ride the simulator's lanes.
func (a *Agent) arm(d time.Duration, j timer) {
	t := sim.Reuse(&a.free)
	j.a, j.epoch = a, a.epoch
	*t = j
	if j.do == doCall {
		a.Sim.ScheduleAction(d, t)
	} else {
		a.Sim.ScheduleLane(d, t)
	}
}

// Schedule arms fn after d of virtual time: if the node crashes before the
// event fires, fn never runs.
func (a *Agent) Schedule(d time.Duration, fn func()) { a.arm(d, timer{do: doCall, fn: fn}) }

// Crash takes the node down: armed timers are invalidated, in-flight
// receptions (verify delays already scheduled) are dropped and the radio
// stops receiving. The embedding protocol discards its own volatile state.
// Returns false if the node was already down.
func (a *Agent) Crash() bool {
	if a.down {
		return false
	}
	a.down = true
	a.epoch++
	a.Stats.Crashes++
	a.Medium.SetNodeDown(a.ID, true)
	return true
}

// Restart brings a crashed node back onto the radio. Returns false if the
// node was not down.
func (a *Agent) Restart() bool {
	if !a.down {
		return false
	}
	a.down = false
	a.Stats.Restarts++
	a.Medium.SetNodeDown(a.ID, false)
	return true
}

// Originate accounts for one application send. It reports false when the
// node is down: offered load during an outage counts against the delivery
// ratio.
func (a *Agent) Originate() bool {
	a.Stats.DataSent++
	if a.down {
		a.Stats.DropNodeDown++
		return false
	}
	return true
}

// Listening reports whether the node can take a frame off the radio,
// counting the frame as dropped when it cannot.
func (a *Agent) Listening() bool {
	if a.down {
		a.Stats.DropNodeDown++
	}
	return !a.down
}

// Delivered accounts for a data packet that reached this node as its final
// destination.
func (a *Agent) Delivered(sentAt sim.Time) {
	a.Stats.DataDelivered++
	a.Stats.DelaySum += a.Sim.Now() - sentAt
	a.Stats.DelayCount++
}

// Jitter draws a uniform delay in [0, max) from the simulation RNG; a
// non-positive max costs no draw.
func (a *Agent) Jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(a.Sim.Rand().Int63n(int64(max)))
}

// Transmit signs a control packet as this node, charges the signing delay
// and puts it on the air: unicast to one neighbour, or to all with
// Broadcast. size is msg's on-air size before authentication overhead. It
// reports false, counting a SignFailure and sending nothing, when no tag
// could be produced.
func (a *Agent) Transmit(to, size int, msg Packet) bool {
	hop := msg.Hop()
	hop.Sender = a.ID
	a.enc = msg.AppendEncode(a.enc[:0])
	auth, delay, err := a.Auth.Sign(a.ID, a.enc)
	if err != nil {
		a.Stats.SignFailures++
		return false
	}
	hop.Auth = auth
	a.arm(delay, timer{do: doSend, msg: msg, peer: to, size: size + a.Auth.Overhead()})
	return true
}

// Receive authenticates a control packet heard from the one-hop neighbour
// from and hands it to Process after the verification delay. Rejections are
// counted in AuthRejected.
func (a *Agent) Receive(from int, msg Packet) {
	if a.SkipVerify {
		a.Process(from, msg)
		return
	}
	hop := msg.Hop()
	if hop.Sender != from {
		// The claimed transmitter must be the actual one-hop sender;
		// anything else is spoofing regardless of signature validity.
		a.Stats.AuthRejected++
		return
	}
	a.enc = msg.AppendEncode(a.enc[:0])
	verdict := doReject
	ok, delay := a.Auth.Verify(from, a.enc, hop.Auth)
	if ok {
		verdict = doProcess
	}
	a.arm(delay, timer{do: verdict, msg: msg, peer: from})
}

// Discovery is the route-discovery retry machine with the bounded
// per-destination send buffer of packets waiting on it.
type Discovery[P any] struct {
	a         *Agent
	bufferCap int
	retries   int
	issue     func(dst, attempt int) time.Duration
	pending   map[int]*attempt
	buffer    map[int][]P
}

// attempt tracks one in-progress discovery; gen invalidates stale timeouts.
type attempt struct{ n, gen int }

// NewDiscovery builds the machine for agent a. issue floods one request for
// dst (attempt counts from 1, so an expanding-ring search can size its TTL)
// and returns how long to wait for the reply; after retries further
// attempts the packets buffered for dst are dropped as DropNoRoute.
func NewDiscovery[P any](a *Agent, bufferCap, retries int, issue func(dst, attempt int) time.Duration) *Discovery[P] {
	d := &Discovery[P]{a: a, bufferCap: bufferCap, retries: retries, issue: issue}
	d.Reset()
	return d
}

// Reset forgets every buffered packet and pending discovery (a crash).
func (d *Discovery[P]) Reset() {
	d.pending = make(map[int]*attempt)
	d.buffer = make(map[int][]P)
}

// Enqueue buffers pkt until a route to dst appears, or counts it as
// DropBufferOverflow when dst's queue is full.
func (d *Discovery[P]) Enqueue(dst int, pkt P) {
	q := d.buffer[dst]
	if len(q) >= d.bufferCap {
		d.a.Stats.DropBufferOverflow++
		return
	}
	d.buffer[dst] = append(q, pkt)
}

// Start begins a discovery for dst unless one is already in flight.
func (d *Discovery[P]) Start(dst int) {
	if _, inProgress := d.pending[dst]; inProgress {
		return
	}
	cur := &attempt{n: 1}
	d.pending[dst] = cur
	d.a.Stats.RREQInitiated++
	d.round(dst, cur)
}

// round issues one request and arms its retry timer.
func (d *Discovery[P]) round(dst int, cur *attempt) {
	timeout := d.issue(dst, cur.n)
	gen := cur.gen
	d.a.Schedule(timeout, func() {
		cur, ok := d.pending[dst]
		if !ok || cur.gen != gen {
			return // satisfied or superseded
		}
		if cur.n > d.retries {
			// Discovery failed: drop everything buffered for dst.
			d.a.Stats.DropNoRoute += uint64(len(d.buffer[dst]))
			delete(d.buffer, dst)
			delete(d.pending, dst)
			return
		}
		cur.n++
		cur.gen++
		d.a.Stats.RREQRetried++
		d.round(dst, cur)
	})
}

// Complete ends the discovery for dst, disarming its outstanding timer.
func (d *Discovery[P]) Complete(dst int) {
	if cur, ok := d.pending[dst]; ok {
		cur.gen++
		delete(d.pending, dst)
	}
}

// Flush takes dst's queue out of the buffer and returns it. Packets the
// caller fails to send may be enqueued again while it walks the result.
func (d *Discovery[P]) Flush(dst int) []P {
	q := d.buffer[dst]
	delete(d.buffer, dst)
	return q
}
