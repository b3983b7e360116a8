package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"mccls/internal/attack"
	"mccls/internal/dsr"
	"mccls/internal/fault"
)

// RunDSR executes the scenario with DSR instead of AODV as the routing
// protocol — the generality extension: the same McCLS authenticator, cost
// model, traffic, attacks and metrics run unchanged over a source-routing
// protocol. Grayhole is not wired for DSR; use Blackhole/Rushing/NoAttack.
func (sc Scenario) RunDSR() (Result, error) {
	return sc.RunDSRContext(context.Background())
}

// RunDSRContext is RunDSR under a context; see Scenario.RunContext for the
// cancellation semantics.
func (sc Scenario) RunDSRContext(ctx context.Context) (Result, error) {
	w, err := sc.setup(ctx)
	if err != nil {
		return Result{}, err
	}
	sc = w.sc
	if sc.OnlineEnrollment {
		// The enrollment protocol is wired into the AODV entry point
		// only; failing beats silently running keyless.
		return Result{}, fmt.Errorf("experiments: online enrollment is not supported on the DSR substrate")
	}
	auth, _, err := sc.buildAuth(rand.New(rand.NewSource(sc.Seed^0x647372)), w.attackers)
	if err != nil {
		return Result{}, err
	}

	nodes := make([]*dsr.Node, sc.Nodes)
	for i := range nodes {
		nodes[i] = dsr.NewNode(i, w.s, w.medium, auth)
		w.add(nodes[i], &nodes[i].Agent)
	}
	for id := range w.attackers {
		switch sc.Attack {
		case Blackhole:
			attack.MakeDSRBlackhole(nodes[id])
		case Rushing:
			attack.MakeDSRRushing(nodes[id])
		}
	}
	return w.drive(fault.Hooks{})
}
