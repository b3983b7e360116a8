// Package fault is the one vocabulary of deterministic faults: node
// crash/restart windows. A crash list is plain data — fully decided before
// t=0 by a generator (Churn from a seeded stream, Rotation by rule) or
// written by hand in a test — and it has two evaluators: Apply schedules
// its windows as lifecycle events on the MANET simulator's clock, and the
// KGC service's chaos injector (kgcd.Injector) polls the same windows over
// signer replicas per request against its clock. Because nothing about a
// crash list depends on execution order, faulted runs compose with a
// parallel figure sweep exactly like clean ones: same seed + same crashes →
// bit-identical results at any worker count.
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

// Churn's draws: downtimes are uniform in [½·meanDowntime, 1½·meanDowntime],
// and a restarted node keeps its routing table with probability retainProb,
// so both the warm- and cold-boot paths run.
const (
	meanDowntime = 30 * time.Second
	retainProb   = 0.5
)

// Churn draws events crash/restart cycles of victims in [0, nodes), placed
// in [0, duration), from rng. The generator consumes a fixed number of rng
// draws per event regardless of outcomes, and every decision is made here —
// before the simulation starts — so the crashes are a pure function of
// (rng seed, events, nodes, duration).
func Churn(rng *rand.Rand, events, nodes int, duration time.Duration) []Crash {
	if nodes <= 0 || events <= 0 || duration <= 0 {
		return nil
	}
	crashes := make([]Crash, events)
	for i := range crashes {
		node := rng.Intn(nodes)
		at := time.Duration(rng.Int63n(int64(duration)))
		down := meanDowntime/2 + time.Duration(rng.Int63n(int64(meanDowntime)))
		crashes[i] = Crash{Node: node, At: at, RestartAt: at + down, RetainRoutes: rng.Float64() < retainProb}
	}
	return crashes
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

// Apply schedules the crash/restart transitions on the simulator clock, in
// slice order. nodes maps a node index to its lifecycle (entries may be nil
// for indices no crash touches — crashes against nil entries are ignored).
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
