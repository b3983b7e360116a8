// Package fault is the one vocabulary of deterministic fault schedules:
// node crash/restart churn, per-link and regional radio outages, and
// time-windowed channel-loss degradation. A Schedule is plain data — fully
// decided before t=0 from a seeded generator (or written by hand in a
// test) — and the MANET simulator evaluates it in two places:
// radio.Medium.SetFaults takes the whole schedule and reads its Links,
// Regions and Loss windows against the virtual clock on every
// transmission, and Apply schedules its Crashes as lifecycle events. The
// KGC service's chaos injector (kgcd.Injector) is the second evaluator of
// Crashes: the same windows over signer replicas, polled per request
// against its clock. Because nothing about a schedule depends on
// execution order, faulted runs compose with the internal/runner parallel
// engine exactly like clean ones: same seed + same schedule → bit-identical
// results at any worker count.
package fault

import (
	"math/rand"
	"time"

	"mccls/internal/sim"
)

// Crash takes a node down at At and (if RestartAt > At) back up at
// RestartAt. RetainRoutes models persisted routing state across the reboot:
// stale retained routes are how the RERR machinery gets exercised after
// churn. A crash with RestartAt ≤ At is permanent.
type Crash struct {
	Node         int
	At           time.Duration
	RestartAt    time.Duration
	RetainRoutes bool
}

// LinkOutage severs the symmetric link A↔B during [From, To).
type LinkOutage struct {
	A, B     int
	From, To time.Duration
}

// RegionOutage severs every link touching the disk at (X, Y) with the given
// Radius during [From, To) — an obstruction or jammer.
type RegionOutage struct {
	X, Y, Radius float64
	From, To     time.Duration
}

// LossWindow raises the channel loss rate by Rate during [From, To),
// composing with the base rate as an independent loss process.
type LossWindow struct {
	From, To time.Duration
	Rate     float64
}

// Schedule is a complete fault plan for one simulation run.
type Schedule struct {
	Crashes []Crash
	Links   []LinkOutage
	Regions []RegionOutage
	Loss    []LossWindow
}

// ChurnConfig parameterizes the random crash/restart generator.
type ChurnConfig struct {
	// Events is the number of crash/restart cycles over the run.
	Events int
	// Nodes is the node population; victims are drawn from [0, Nodes).
	Nodes int
	// Duration is the window crashes are placed in.
	Duration time.Duration
	// MeanDowntime is the average outage length (default 30s). Downtimes
	// are uniform in [½·mean, 1½·mean].
	MeanDowntime time.Duration
	// RetainProb is the probability a restarted node keeps its routing
	// table (default 0.5), so both the warm- and cold-boot paths run.
	RetainProb float64
	// Exclude lists nodes never crashed (e.g. the KGC in enrollment
	// availability studies, or traffic endpoints).
	Exclude []int
}

// Churn draws a crash/restart schedule from rng. The generator consumes a
// fixed number of rng draws per event regardless of outcomes, and every
// decision is made here — before the simulation starts — so the schedule is
// a pure function of (rng seed, config).
func Churn(rng *rand.Rand, cfg ChurnConfig) Schedule {
	if cfg.MeanDowntime <= 0 {
		cfg.MeanDowntime = 30 * time.Second
	}
	if cfg.RetainProb == 0 {
		cfg.RetainProb = 0.5
	}
	excluded := make(map[int]bool, len(cfg.Exclude))
	for _, n := range cfg.Exclude {
		excluded[n] = true
	}
	var victims []int
	for n := 0; n < cfg.Nodes; n++ {
		if !excluded[n] {
			victims = append(victims, n)
		}
	}
	var s Schedule
	if len(victims) == 0 || cfg.Events <= 0 || cfg.Duration <= 0 {
		return s
	}
	for i := 0; i < cfg.Events; i++ {
		node := victims[rng.Intn(len(victims))]
		at := time.Duration(rng.Int63n(int64(cfg.Duration)))
		// Uniform in [½·mean, 1½·mean].
		down := cfg.MeanDowntime/2 + time.Duration(rng.Int63n(int64(cfg.MeanDowntime)))
		retain := rng.Float64() < cfg.RetainProb
		s.Crashes = append(s.Crashes, Crash{
			Node:         node,
			At:           at,
			RestartAt:    at + down,
			RetainRoutes: retain,
		})
	}
	return s
}

// Rotation is Churn's deterministic sibling, the canonical chaos rotation:
// the k-th crash takes node k mod nodes down during
// [k·period, k·period+downFor), for every period boundary inside the
// horizon. With downFor < period exactly one node is dark at any instant —
// below quorum loss for any t ≤ n−1 deployment.
func Rotation(nodes int, period, downFor, horizon time.Duration) []Crash {
	if nodes <= 0 || period <= 0 || downFor <= 0 {
		return nil
	}
	var out []Crash
	for k := 0; time.Duration(k)*period < horizon; k++ {
		at := time.Duration(k) * period
		out = append(out, Crash{Node: k % nodes, At: at, RestartAt: at + downFor})
	}
	return out
}

// Node is the lifecycle surface Apply drives; aodv.Node and dsr.Node
// implement it over the shared routing.Agent crash lifecycle. The
// bool returns report whether a transition actually happened, so
// overlapping crash windows for the same node do not double-fire hooks.
type Node interface {
	Down() bool
	Up(retainRoutes bool) bool
}

// Hooks observe lifecycle transitions as they are applied. OnCrash runs
// after the node goes down (the secure-routing layer uses it to discard the
// node's volatile key material); OnRestart runs after the node comes back
// up.
type Hooks struct {
	OnCrash   func(node int)
	OnRestart func(node int)
}

// Apply schedules a schedule's crash/restart transitions on the simulator
// clock, in slice order; its radio windows are the medium's (SetFaults).
// nodes maps a node index to its lifecycle (entries may be nil for indices
// the schedule never touches — crashes against nil entries are ignored).
func Apply(s *sim.Simulator, crashes []Crash, nodes []Node, hooks Hooks) {
	for _, c := range crashes {
		c := c
		if c.Node < 0 || c.Node >= len(nodes) || nodes[c.Node] == nil {
			continue
		}
		s.ScheduleAt(c.At, func() {
			if nodes[c.Node].Down() && hooks.OnCrash != nil {
				hooks.OnCrash(c.Node)
			}
		})
		if c.RestartAt > c.At {
			s.ScheduleAt(c.RestartAt, func() {
				if nodes[c.Node].Up(c.RetainRoutes) && hooks.OnRestart != nil {
					hooks.OnRestart(c.Node)
				}
			})
		}
	}
}
