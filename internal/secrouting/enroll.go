package secrouting

import (
	"math/rand"
	"time"

	"mccls/internal/radio"
	"mccls/internal/sim"
)

// Online enrollment: instead of every node receiving its McCLS key out of
// band before t=0, the KGC is hosted at a node inside the network and key
// issuance is a request/response exchange over the simulated radio.
// Requests and replies are flooded with a TTL (the requester has no routes
// yet — it cannot have any until it can sign), deduplicated per relay by
// (node, attempt), and deliberately unauthenticated: this is the bootstrap
// channel, and its security rests on the KGC's identity whitelist plus the
// fact that a stolen reply is useless without the enrollee's secret value
// (the certificateless property). A request that goes unanswered — KGC
// down, partition, lost frames — is retried with capped exponential
// backoff and jitter drawn from a per-node seeded stream (so the retry
// schedule is deterministic per identity and never perturbs the shared
// simulation RNG); until a reply arrives the node simply
// signs with garbage and its control packets are rejected exactly as the
// paper's accept/reject rule dictates for any unenrolled sender. A node
// that crashes loses its volatile keys and re-enrolls through the same
// path on restart.

// Enrollment protocol constants. Derivation (see EXPERIMENTS.md,
// "Resilience"): a TTL-12 flood crosses the default 1500×300 m field in
// ≤ 12 hops × (2 ms MAC jitter bound + sub-ms air time) per direction, so
// 500 ms bounds a request/reply round trip with an order of magnitude of
// headroom; the backoff base is 2× the timeout so the first retry cannot
// race its own outstanding reply; the cap bounds how stale a node's
// retry schedule can get, so after a long KGC outage every node re-enrolls
// within cap·(1+jitter) = 20 s of the KGC returning.
const (
	DefaultEnrollTimeout = 500 * time.Millisecond
	DefaultBackoffBase   = 1 * time.Second
	DefaultBackoffCap    = 16 * time.Second
	DefaultJitterFrac    = 0.25
	DefaultEnrollTTL     = 12

	// kgcNode is the node index hosting the KGC.
	kgcNode = 0

	// enrollStartJitterMax desynchronizes the initial requests at t=0.
	enrollStartJitterMax = 200 * time.Millisecond

	// enrollRelayJitterMax damps the enrollment flood like the RREQ
	// rebroadcast jitter damps route discovery.
	enrollRelayJitterMax = 25 * time.Millisecond

	// Wire sizes: the request is bare framing plus identities; the reply
	// carries the partial private key D_ID, a G2 point of 128 bytes
	// uncompressed (PartialPrivateKey.Marshal), for which it charges only
	// 64 (ROADMAP item 2 re-pins the size with the figures it moves).
	enrollReqWireSize = 44
	enrollRepWireSize = 44 + 64
)

// EnrollRequest asks the KGC for a partial private key. Flooded.
type EnrollRequest struct {
	Node    int // requesting identity
	Attempt int // retry counter; dedup key component
	TTL     int
}

// EnrollReply carries the issued key material back. Flooded.
type EnrollReply struct {
	Node    int // enrollee the reply is addressed to
	Attempt int // echo of the request's attempt
	TTL     int
}

// Authority is the key-issuing surface the enrollment protocol drives;
// McCLSAuth and CostModelAuth both implement it.
type Authority interface {
	Enroll(node int) error
	Unenroll(node int)
	Enrolled(node int) bool
}

// EnrollStats counts enrollment protocol events (per node, and summed by
// Enrollment.Totals).
type EnrollStats struct {
	Attempts        uint64 // requests originated
	Timeouts        uint64 // attempts that expired unanswered
	Successes       uint64 // enrollments completed (>1 after re-enrollment)
	RequestsRelayed uint64
	RepliesRelayed  uint64
	RepliesSent     uint64 // KGC only
	// MaxBackoff is the largest jittered retry delay this node ever
	// waited; bounded by DefaultBackoffCap·(1+DefaultJitterFrac).
	MaxBackoff time.Duration
}

type enrollKind uint8

const (
	enrollKindReq enrollKind = iota
	enrollKindRep
)

type enrollSeen struct {
	kind    enrollKind
	node    int
	attempt int
}

// enrollState is one client's retry machine.
type enrollState struct {
	gen     int // invalidates armed timers across crash/success
	attempt int
	// jrng is this node's private backoff-jitter stream (see
	// NewEnrollment's jitterSeed).
	jrng *rand.Rand
}

// Enrollment runs the online enrollment protocol over a medium. It
// interposes on each participating node's receive handler (install after
// the routing layer) and must be started before the simulation runs.
type Enrollment struct {
	sim    *sim.Simulator
	medium *radio.Medium
	auth   Authority

	registered map[int]bool // KGC identity whitelist
	state      []*enrollState
	seen       []map[enrollSeen]bool
	stats      []EnrollStats
}

// NewEnrollment wires the protocol onto the medium for the given client
// nodes (the KGC host, node 0, must not be listed; attackers are simply
// omitted — the KGC's whitelist is what keeps them out). Each client's
// current receive handler is wrapped, so call this after aodv.NewNode
// installed the routing handlers.
//
// jitterSeed seeds the per-node backoff-jitter streams. Each client derives
// its own RNG from it, so jitter draws never perturb the shared simulation
// stream (waypoints, MAC delays) and a node's backoff schedule depends only
// on its identity and attempt count — not on global event interleaving.
// Zero draws a seed from the simulator RNG here (exactly one draw, keeping
// the shared stream's advance fixed regardless of retry counts).
func NewEnrollment(s *sim.Simulator, medium *radio.Medium, auth Authority, clients []int, jitterSeed int64) *Enrollment {
	n := medium.Nodes()
	e := &Enrollment{
		sim:        s,
		medium:     medium,
		auth:       auth,
		registered: make(map[int]bool, len(clients)),
		state:      make([]*enrollState, n),
		seen:       make([]map[enrollSeen]bool, n),
		stats:      make([]EnrollStats, n),
	}
	if jitterSeed == 0 {
		jitterSeed = s.Rand().Int63()
	}
	for _, c := range clients {
		e.registered[c] = true
		// Golden-ratio spacing decorrelates adjacent node indices under
		// the xor-with-seed derivation (same idiom as the experiment
		// harness's per-purpose streams).
		e.state[c] = &enrollState{
			jrng: rand.New(rand.NewSource(jitterSeed ^ int64(uint64(c+1)*0x9e3779b97f4a7c15))),
		}
	}
	for i := 0; i < n; i++ {
		e.seen[i] = make(map[enrollSeen]bool)
		prev := medium.Handler(i)
		i := i
		medium.SetHandler(i, func(from int, payload any) {
			switch msg := payload.(type) {
			case *EnrollRequest:
				e.onRequest(i, *msg)
			case *EnrollReply:
				e.onReply(i, *msg)
			default:
				if prev != nil {
					prev(from, payload)
				}
			}
		})
	}
	return e
}

// Start self-enrolls the KGC host (it holds the master key; no radio
// needed) and kicks off every client's first request with a small
// desynchronizing jitter.
func (e *Enrollment) Start() error {
	if err := e.auth.Enroll(kgcNode); err != nil {
		return err
	}
	for c := range e.state {
		if e.state[c] == nil {
			continue
		}
		c := c
		offset := time.Duration(e.sim.Rand().Int63n(int64(enrollStartJitterMax)))
		e.sim.Schedule(offset, func() { e.begin(c) })
	}
	return nil
}

// begin (re)starts a client's retry machine from a fresh backoff.
func (e *Enrollment) begin(node int) {
	st := e.state[node]
	st.gen++
	st.attempt = 0
	e.sendRequest(node)
}

// sendRequest floods one enrollment request and arms its timeout.
func (e *Enrollment) sendRequest(node int) {
	if e.auth.Enrolled(node) || e.medium.NodeDown(node) {
		return
	}
	st := e.state[node]
	e.stats[node].Attempts++
	req := &EnrollRequest{Node: node, Attempt: st.attempt, TTL: DefaultEnrollTTL}
	e.seen[node][enrollSeen{enrollKindReq, node, st.attempt}] = true
	e.medium.Broadcast(node, enrollReqWireSize, req)

	gen, attempt := st.gen, st.attempt
	e.sim.Schedule(DefaultEnrollTimeout, func() {
		if st.gen != gen || e.auth.Enrolled(node) {
			return
		}
		e.stats[node].Timeouts++
		delay := e.backoff(node, attempt)
		st.attempt++
		e.sim.Schedule(delay, func() {
			if st.gen != gen {
				return
			}
			e.sendRequest(node)
		})
	})
}

// backoff computes the jittered retry delay after the k-th failed attempt:
// min(cap, base·2^k) stretched by a uniform factor in [1, 1+DefaultJitterFrac]
// drawn from the node's private jitter stream, so synchronized failures do
// not retry in lockstep.
func (e *Enrollment) backoff(node, k int) time.Duration {
	d := DefaultBackoffCap
	if k < 62 {
		if exp := DefaultBackoffBase << uint(k); exp > 0 && exp < d {
			d = exp
		}
	}
	d = time.Duration(float64(d) * (1 + DefaultJitterFrac*e.state[node].jrng.Float64()))
	if d > e.stats[node].MaxBackoff {
		e.stats[node].MaxBackoff = d
	}
	return d
}

// onRequest handles an enrollment request arriving at node me: the KGC
// answers whitelisted identities; everyone else relays the flood.
func (e *Enrollment) onRequest(me int, req EnrollRequest) {
	if e.medium.NodeDown(me) {
		return
	}
	key := enrollSeen{enrollKindReq, req.Node, req.Attempt}
	if e.seen[me][key] {
		return
	}
	e.seen[me][key] = true

	if me == kgcNode {
		if !e.registered[req.Node] {
			return // unknown identity: attackers get nothing
		}
		e.stats[me].RepliesSent++
		rep := &EnrollReply{Node: req.Node, Attempt: req.Attempt, TTL: DefaultEnrollTTL}
		e.seen[me][enrollSeen{enrollKindRep, rep.Node, rep.Attempt}] = true
		e.medium.Broadcast(me, enrollRepWireSize, rep)
		return
	}
	if req.TTL <= 1 {
		return
	}
	fwd := req
	fwd.TTL--
	e.stats[me].RequestsRelayed++
	e.relay(me, enrollReqWireSize, &fwd)
}

// onReply handles a reply arriving at node me: the addressee completes its
// keypair; everyone else relays.
func (e *Enrollment) onReply(me int, rep EnrollReply) {
	if e.medium.NodeDown(me) {
		return
	}
	key := enrollSeen{enrollKindRep, rep.Node, rep.Attempt}
	if e.seen[me][key] {
		return
	}
	e.seen[me][key] = true

	if rep.Node == me {
		if e.auth.Enrolled(me) {
			return // duplicate via another path
		}
		if err := e.auth.Enroll(me); err != nil {
			// Key generation failed (broken crypto RNG); the retry
			// machine is still armed and will try again.
			return
		}
		e.stats[me].Successes++
		e.state[me].gen++ // disarm the pending timeout
		return
	}
	if rep.TTL <= 1 {
		return
	}
	fwd := rep
	fwd.TTL--
	e.stats[me].RepliesRelayed++
	e.relay(me, enrollRepWireSize, &fwd)
}

// relay rebroadcasts a flooded enrollment frame after a damping jitter.
func (e *Enrollment) relay(me int, size int, payload any) {
	jitter := time.Duration(e.sim.Rand().Int63n(int64(enrollRelayJitterMax)))
	e.sim.Schedule(jitter, func() {
		if e.medium.NodeDown(me) {
			return
		}
		e.medium.Broadcast(me, size, payload)
	})
}

// OnCrash reacts to a node going down: volatile key material is lost and
// the retry machine is disarmed. The KGC host loses only its own signing
// key — the master secret and the identity whitelist model persisted
// state.
func (e *Enrollment) OnCrash(node int) {
	e.auth.Unenroll(node)
	if st := e.state[node]; st != nil {
		st.gen++
	}
}

// OnRestart reacts to a node coming back up: the KGC re-derives its own
// key locally; a client starts enrollment over from a fresh backoff.
func (e *Enrollment) OnRestart(node int) {
	if node == kgcNode {
		// Ignoring the error mirrors Start: with a broken crypto RNG the
		// KGC host simply stays unenrolled and its packets are rejected.
		_ = e.auth.Enroll(node)
		return
	}
	if e.state[node] != nil {
		e.begin(node)
	}
}

// Totals sums the per-node counters; MaxBackoff is the maximum over nodes.
func (e *Enrollment) Totals() EnrollStats {
	var t EnrollStats
	for _, s := range e.stats {
		t.Attempts += s.Attempts
		t.Timeouts += s.Timeouts
		t.Successes += s.Successes
		t.RequestsRelayed += s.RequestsRelayed
		t.RepliesRelayed += s.RepliesRelayed
		t.RepliesSent += s.RepliesSent
		if s.MaxBackoff > t.MaxBackoff {
			t.MaxBackoff = s.MaxBackoff
		}
	}
	return t
}
