package experiments

import (
	"context"
	"time"
)

// Resilience sweep: the benign-failure counterpart of the attack figures.
// The x-axis is node churn (crash/restart cycles per run) instead of speed;
// the curves compare plain AODV against the full McCLS-AODV stack with
// online enrollment, so the McCLS curve pays for churn twice — lost routes
// like everyone else, plus key loss and re-enrollment through the
// in-network KGC. The churn schedule at a given (events, seed) point is
// drawn from a seed-derived stream independent of the security mode, so
// both curves suffer the identical crash timeline (paired comparison).

// ResilienceConfig drives the churn sweep. Zero values select a 900 s run
// of the paper's 20-node field at 5 m/s with 0→4 crash/restart events.
type ResilienceConfig struct {
	// Base is the common scenario; Security/OnlineEnrollment/ChurnEvents
	// and Seed are overridden per sweep point.
	Base Scenario
	// Churn lists the swept crash/restart event counts (default 0–4).
	Churn []int
	// Repeats averages each point over this many seeds (default 3).
	Repeats int
	// Seed is the base seed; repeat k of a point uses Seed + k·7919.
	Seed int64

	Workers      int
	TrialTimeout time.Duration
	Progress     func(TrialUpdate)
	Context      context.Context
}

// resilienceCurves pay for churn differently: AODV loses routes, McCLS also
// loses keys and re-enrolls online. Neither sets an attack (Base's is kept).
var resilienceCurves = []curve{
	{label: "AODV", sec: Plain},
	{label: "McCLS", sec: McCLSCost, online: true},
}

// sweep fills the engine in for the churn axis, applying the resilience
// defaults to the base scenario.
func (cfg ResilienceConfig) sweep() axisSweep[int] {
	if len(cfg.Churn) == 0 {
		cfg.Churn = []int{0, 1, 2, 3, 4}
	}
	if cfg.Base.Duration == 0 {
		cfg.Base.Duration = 900 * time.Second
	}
	if cfg.Base.MaxSpeed == 0 {
		cfg.Base.MaxSpeed = 5
	}
	return axisSweep[int]{
		base: cfg.Base, curves: resilienceCurves, run: Scenario.RunContext,
		name: "churn", axis: cfg.Churn,
		set:  func(sc *Scenario, events int) { sc.ChurnEvents = events },
		pool: pool{cfg.Repeats, cfg.Seed, cfg.Workers, cfg.TrialTimeout, cfg.Progress, cfg.Context},
	}
}

// FigureResilience generates "Packet Delivery Ratio under churn": delivery
// for plain AODV vs the full McCLS stack (online enrollment) as the number
// of crash/restart events grows.
func FigureResilience(cfg ResilienceConfig) (Figure, error) {
	return cfg.sweep().figure(pdrSel, Figure{
		ID: "fig7", Title: "Packet Delivery Ratio under churn",
		XLabel: "crash/restart events per run", YLabel: "packet delivery ratio",
		XColumn: "churn",
	})
}

// FigureResilienceOverhead generates "RREQ Ratio under churn": the control
// overhead each stack pays to recover the routes churn destroys.
func FigureResilienceOverhead(cfg ResilienceConfig) (Figure, error) {
	return cfg.sweep().figure(rreqSel, Figure{
		ID: "fig8", Title: "RREQ Ratio under churn",
		XLabel: "crash/restart events per run", YLabel: "RREQ ratio",
		XColumn: "churn",
	})
}
