// Package experiments reproduces the paper's evaluation: the Table 1
// scheme comparison and the five figures measuring AODV vs McCLS-AODV in a
// 20-node random-waypoint MANET, with and without black hole and rushing
// attackers. Every table and figure has a function that regenerates its
// rows/series — Table1 and, for the figures, RunFigure over the Figures
// table; bench_test.go and cmd/manetsim are thin wrappers around them.
package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"mccls/internal/aodv"
	"mccls/internal/attack"
	"mccls/internal/dsr"
	"mccls/internal/fault"
	"mccls/internal/mobility"
	"mccls/internal/radio"
	"mccls/internal/routing"
	"mccls/internal/secrouting"
	"mccls/internal/sim"
	"mccls/internal/traffic"
)

// SecurityMode selects the routing-authentication configuration.
type SecurityMode int

const (
	// Plain is unauthenticated AODV, the paper's baseline.
	Plain SecurityMode = iota + 1
	// McCLSCost is McCLS-AODV with the calibrated cost-model
	// authenticator (default for parameter sweeps).
	McCLSCost
	// McCLSReal is McCLS-AODV doing real pairing cryptography per
	// control packet (slow; small scenarios and equivalence tests).
	McCLSReal
)

func (m SecurityMode) String() string {
	switch m {
	case Plain:
		return "AODV"
	case McCLSCost, McCLSReal:
		return "McCLS"
	default:
		return fmt.Sprintf("SecurityMode(%d)", int(m))
	}
}

// AttackMode selects the adversary.
type AttackMode int

const (
	NoAttack AttackMode = iota + 1
	Blackhole
	Rushing
	// Grayhole is the insider selective-forwarding extension (see
	// internal/attack): the attackers hold valid KGC keys, so routing
	// authentication does NOT exclude them. Used by the ablation that
	// delimits what McCLS protects against.
	Grayhole
)

func (m AttackMode) String() string {
	switch m {
	case NoAttack:
		return "none"
	case Blackhole:
		return "black hole"
	case Rushing:
		return "rushing"
	case Grayhole:
		return "gray hole (insider)"
	default:
		return fmt.Sprintf("AttackMode(%d)", int(m))
	}
}

// MobilityModel selects the movement pattern of the scenario's nodes.
type MobilityModel int

const (
	// RandomWaypointMobility is the paper's model (§6) and the zero value:
	// uniform waypoints, straight legs, no pause.
	RandomWaypointMobility MobilityModel = iota
	// ManhattanMobility constrains nodes to a grid of orthogonal streets
	// with probabilistic turns at intersections — the urban city-scale
	// pattern, on the mobility package's 100 m blocks.
	ManhattanMobility
)

func (m MobilityModel) String() string {
	switch m {
	case RandomWaypointMobility:
		return "random waypoint"
	case ManhattanMobility:
		return "manhattan"
	default:
		return fmt.Sprintf("MobilityModel(%d)", int(m))
	}
}

// The paper's adversary (§6): two attacking nodes whenever an attack is
// enabled; the insider gray hole extension drops each packet it could
// forward with probability one half.
const (
	attackerCount    = 2
	grayholeDropProb = 0.5
)

// radioRange is every scenario's radio range in meters. QualNet's default
// 802.11 radio at 2 Mb/s reaches ≈370 m; with the radio package's default
// 250 m disk the 1500×300 m field starts partitioned and mobility *helps*
// delivery, inverting the paper's trends.
const radioRange = 350

// Scenario is one simulation configuration. Zero values select the paper's
// setup (§6): 20 nodes in a 1500×300 m field, random waypoint with zero
// pause, 10 CBR flows of 512-byte packets at 4 packets/s (the traffic
// package's constants), two attackers when an attack is enabled.
type Scenario struct {
	Nodes         int
	Width, Height float64
	MaxSpeed      float64 // m/s; 0 keeps nodes static
	Duration      time.Duration
	Seed          int64

	// Mobility selects the movement model (zero value: the paper's random
	// waypoint).
	Mobility MobilityModel
	// RangeJitter spreads per-node radio ranges uniformly over
	// radioRange·[1−j, 1+j] (clamped to j ≤ 0.9), modelling a heterogeneous
	// radio population. The jitter is drawn from a seed-derived stream
	// independent of the simulation RNG, so 0 leaves runs bit-identical to
	// the homogeneous setup.
	RangeJitter float64

	Flows int

	Security SecurityMode
	Attack   AttackMode

	// SignLatency and VerifyLatency override the injected crypto costs
	// (0 selects the secrouting defaults). Ignored under Plain.
	SignLatency, VerifyLatency time.Duration

	// ChurnEvents is the number of random crash/restart cycles in the run.
	// They are drawn from Seed on a stream independent of the simulation
	// RNG, so every security mode at the same seed suffers the identical
	// churn (paired comparison).
	ChurnEvents int
	// OnlineEnrollment replaces out-of-band pre-enrollment with the
	// in-network KGC protocol (KGC at node 0): nodes request keys over the
	// radio with capped-exponential-backoff retries, and a crashed node
	// loses its volatile keys and re-enrolls on restart. Ignored under Plain.
	OnlineEnrollment bool

	AODV aodv.Config
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Nodes == 0 {
		sc.Nodes = 20
	}
	if sc.Width == 0 {
		sc.Width = 1500
	}
	if sc.Height == 0 {
		sc.Height = 300
	}
	if sc.Duration == 0 {
		sc.Duration = 300 * time.Second
	}
	if sc.Flows == 0 {
		sc.Flows = 10
	}
	if sc.Security == 0 {
		sc.Security = Plain
	}
	if sc.Attack == 0 {
		sc.Attack = NoAttack
	}
	return sc
}

// Result is a run's routing counters — every node's routing.Stats summed,
// every drop reason included, with the paper's four metrics as its
// methods — plus the environment counters useful for debugging scenarios.
type Result struct {
	routing.Stats
	Radio radio.Stats
	// Enroll sums the online-enrollment counters (zero when the scenario
	// pre-enrolls out of band).
	Enroll secrouting.EnrollStats
	// Events is the number of simulator events the run processed, the
	// scenario's natural work unit for throughput observability.
	Events uint64
	// PeakQueue is the event queue's high-water mark and EventAllocs the
	// pooled event store's live high-water mark (fresh allocations, not
	// events processed).
	PeakQueue   int
	EventAllocs uint64
	// Grid reports the spatial neighbor index's work.
	Grid radio.GridStats
}

// routingNode is a node of either protocol as a run drives it: a traffic
// source with a crashable lifecycle.
type routingNode interface {
	traffic.Sender
	fault.Node
}

// substrate is one row of the routing-protocol table (substrates): what a
// run over AODV does differently from a run over DSR.
type substrate struct {
	// salt derives the crypto RNG from the scenario seed. It is a stream
	// separate from the simulation's, so McCLSReal and McCLSCost runs
	// consume the simulator RNG identically and produce identical routing
	// behaviour (asserted by tests).
	salt int64
	// node builds node id of the world, as the scenario's adversary when
	// the world lists it among the attackers.
	node func(w *world, id int, auth routing.Authenticator) (routingNode, *routing.Agent, error)
}

// substrates is keyed by FigureSpec.DSR: false is AODV, true is DSR.
var substrates = map[bool]substrate{
	false: {salt: 0x6d63434c53, node: func(w *world, id int, auth routing.Authenticator) (routingNode, *routing.Agent, error) {
		n := aodv.NewNode(id, w.s, w.medium, w.sc.AODV, auth)
		if w.attackers[id] {
			switch w.sc.Attack {
			case Blackhole:
				attack.MakeBlackhole(n)
			case Rushing:
				attack.MakeRushing(n)
			case Grayhole:
				attack.MakeGrayhole(n, grayholeDropProb,
					rand.New(rand.NewSource(w.sc.Seed+int64(id))))
			}
		}
		return n, &n.Agent, nil
	}},
	true: {salt: 0x647372, node: func(w *world, id int, auth routing.Authenticator) (routingNode, *routing.Agent, error) {
		n := dsr.NewNode(id, w.s, w.medium, auth)
		if w.attackers[id] {
			switch w.sc.Attack {
			case Blackhole:
				attack.MakeDSRBlackhole(n)
			case Rushing:
				attack.MakeDSRRushing(n)
			default:
				return nil, nil, fmt.Errorf("experiments: attack %q has no DSR overlay", w.sc.Attack)
			}
		}
		return n, &n.Agent, nil
	}},
}

// Run executes the scenario over AODV and returns its result.
func (sc Scenario) Run() (Result, error) { return sc.run(context.Background(), false) }

// RunDSR executes the scenario with DSR instead of AODV as the routing
// protocol — the generality extension: the same McCLS authenticator, cost
// model, traffic, faults, online enrollment and metrics run unchanged over
// a source-routing protocol, against the black hole and rushing overlays
// (the insider gray hole exists for AODV only and fails the run).
func (sc Scenario) RunDSR() (Result, error) { return sc.run(context.Background(), true) }

// world is what a run's nodes are built into: the defaulted scenario, its
// simulator and medium, and the attacker set.
type world struct {
	sc        Scenario
	s         *sim.Simulator
	medium    *radio.Medium
	attackers map[int]bool
}

// setup builds the world: simulator, mobility, medium (with range jitter)
// and the attacker set.
func (sc Scenario) setup(ctx context.Context) (*world, error) {
	sc = sc.withDefaults()
	if sc.Nodes < 2 {
		return nil, fmt.Errorf("experiments: %d nodes, need at least 2", sc.Nodes)
	}
	if sc.Duration < 0 {
		return nil, fmt.Errorf("experiments: negative duration %v", sc.Duration)
	}
	s := sim.New(sc.Seed)
	s.SetInterrupt(ctx.Err)

	horizon := sc.Duration + 30*time.Second
	mob, err := sc.buildMobility(horizon, s.Rand())
	if err != nil {
		return nil, err
	}
	medium := radio.New(s, mob, radio.Config{Range: radioRange})
	if sc.RangeJitter > 0 {
		// A stream independent of the simulation RNG: jitter must not shift
		// waypoint or MAC draws, and the same seed must give every security
		// mode the same radio population (paired comparison).
		j := math.Min(sc.RangeJitter, 0.9)
		jrng := rand.New(rand.NewSource(sc.Seed ^ 0x726a7472)) // "rjtr"
		for i := 0; i < sc.Nodes; i++ {
			medium.SetNodeRange(i, radioRange*(1+j*(2*jrng.Float64()-1)))
		}
	}

	// Attackers take the highest node indices; their random-waypoint
	// placement is as good as anyone's.
	attackers := map[int]bool{}
	if sc.Attack != NoAttack {
		for i := 0; i < attackerCount && i < sc.Nodes-2; i++ {
			attackers[sc.Nodes-1-i] = true
		}
	}
	return &world{sc: sc, s: s, medium: medium, attackers: attackers}, nil
}

// run is the one run body behind Run, RunDSR and RunFigure's trials, whose
// ctx the simulator's interrupt hook polls: build the world, key it, add the
// substrate's nodes, wire online enrollment, schedule the seed-derived churn
// through the node lifecycle, start CBR traffic between honest nodes, run
// the simulator past the traffic window so in-flight packets drain, and sum
// the nodes' counters into the result.
func (sc Scenario) run(ctx context.Context, overDSR bool) (Result, error) {
	w, err := sc.setup(ctx)
	if err != nil {
		return Result{}, err
	}
	sc, s, sub := w.sc, w.s, substrates[overDSR]
	auth, authority, err := sc.buildAuth(rand.New(rand.NewSource(sc.Seed^sub.salt)), w.attackers)
	if err != nil {
		return Result{}, err
	}
	// Each node is seen three ways: as a traffic source, as a crashable
	// lifecycle, and as the counters the result sums.
	senders := make([]traffic.Sender, sc.Nodes)
	faulty := make([]fault.Node, sc.Nodes)
	agents := make([]*routing.Agent, sc.Nodes)
	for id := range agents {
		n, a, err := sub.node(w, id, auth)
		if err != nil {
			return Result{}, err
		}
		senders[id], faulty[id], agents[id] = n, n, a
	}

	// Online enrollment: the KGC lives at node 0; everyone else the paper's
	// rule would key (honest nodes, plus gray hole insiders) becomes a
	// client and must fetch its key over the air. The handler interposer
	// requires the routing handlers to be installed already. Crashes reach
	// the enrollment layer too, so key state tracks them.
	var enr *secrouting.Enrollment
	var hooks fault.Hooks
	if sc.OnlineEnrollment && authority != nil {
		var clients []int
		for i := 1; i < sc.Nodes; i++ {
			if sc.Attack == Grayhole || !w.attackers[i] {
				clients = append(clients, i)
			}
		}
		// Backoff jitter on its own seed-derived stream, like range jitter
		// and churn: retry schedules must not shift any shared simulation
		// draws.
		enr = secrouting.NewEnrollment(s, w.medium, authority, clients, sc.Seed^0x626b6a74) // "bkjt"
		if err := enr.Start(); err != nil {
			return Result{}, err
		}
		hooks = fault.Hooks{OnCrash: enr.OnCrash, OnRestart: enr.OnRestart}
	}

	churnRng := rand.New(rand.NewSource(sc.Seed ^ 0x6368726e)) // "chrn"
	fault.Apply(s, fault.Churn(churnRng, sc.ChurnEvents, sc.Nodes, sc.Duration), faulty, hooks)

	var honest []int
	for i := 0; i < sc.Nodes; i++ {
		if !w.attackers[i] {
			honest = append(honest, i)
		}
	}
	flows := traffic.RandomFlows(sc.Flows, honest, s.Rand())
	traffic.StartCBR(s, senders, flows, traffic.CBRConfig{
		Start: 2 * time.Second,
		Stop:  2*time.Second + sc.Duration,
	})

	s.Run(sc.Duration + 12*time.Second)
	if err := s.Err(); err != nil {
		return Result{}, fmt.Errorf("scenario aborted after %d events: %w", s.Processed(), err)
	}
	res := Result{
		Radio: w.medium.Stats, Events: s.Processed(),
		PeakQueue: s.PeakQueue(), EventAllocs: s.EventAllocs(), Grid: w.medium.GridStats(),
	}
	for _, a := range agents {
		res.Add(a.Stats)
	}
	if enr != nil {
		res.Enroll = enr.Totals()
	}
	return res, nil
}

// buildMobility constructs the scenario's movement model. All models draw
// their trajectories from the simulation RNG at construction, so the zero
// value (random waypoint) consumes the stream exactly as the original
// single-model code did and stays bit-identical.
func (sc Scenario) buildMobility(horizon time.Duration, rng *rand.Rand) (mobility.Model, error) {
	switch sc.Mobility {
	case RandomWaypointMobility:
		return mobility.NewRandomWaypoint(mobility.RandomWaypointConfig{
			Width:    sc.Width,
			Height:   sc.Height,
			MaxSpeed: sc.MaxSpeed,
		}, sc.Nodes, horizon, rng), nil
	case ManhattanMobility:
		return mobility.NewManhattanGrid(mobility.ManhattanGridConfig{
			Width:    sc.Width,
			Height:   sc.Height,
			MaxSpeed: sc.MaxSpeed,
		}, sc.Nodes, horizon, rng), nil
	default:
		return nil, fmt.Errorf("experiments: unknown mobility model %d", int(sc.Mobility))
	}
}

// overrideLatencies applies the scenario's non-zero crypto cost overrides
// to an authenticator's latency fields.
func (sc Scenario) overrideLatencies(sign, verify *time.Duration) {
	if sc.SignLatency != 0 {
		*sign = sc.SignLatency
	}
	if sc.VerifyLatency != 0 {
		*verify = sc.VerifyLatency
	}
}

// buildAuth constructs the authenticator for the security mode. Without
// online enrollment it keys every honest node before t=0; with it, nodes
// start keyless and the returned Authority is what the enrollment protocol
// issues through. Gray hole attackers are *insiders*: they get keys too,
// which is exactly the property that ablation probes.
func (sc Scenario) buildAuth(rng *rand.Rand, attackers map[int]bool) (routing.Authenticator, secrouting.Authority, error) {
	if sc.Attack == Grayhole {
		attackers = nil // insiders get keys like everyone else
	}
	var a interface {
		routing.Authenticator
		secrouting.Authority
	}
	switch sc.Security {
	case Plain:
		return routing.NullAuth{}, nil, nil
	case McCLSCost:
		m := secrouting.NewCostModelAuth()
		sc.overrideLatencies(&m.SignLatency, &m.VerifyLatency)
		a = m
	case McCLSReal:
		m, err := secrouting.NewMcCLSAuth(rng)
		if err != nil {
			return nil, nil, err
		}
		sc.overrideLatencies(&m.SignLatency, &m.VerifyLatency)
		a = m
	default:
		return nil, nil, fmt.Errorf("experiments: unknown security mode %d", sc.Security)
	}
	if sc.OnlineEnrollment {
		return a, a, nil
	}
	for i := 0; i < sc.Nodes; i++ {
		if !attackers[i] {
			if err := a.Enroll(i); err != nil {
				return nil, nil, err
			}
		}
	}
	return a, a, nil
}
