package experiments

import (
	"context"
	"time"
)

// City-scale sweep: delivery and control overhead as the network grows from
// a neighborhood to a city. The x-axis is node count in a fixed urban field,
// so it doubles as a density axis; nodes drive a Manhattan street grid and
// carry heterogeneous radio ranges — the regime the spatial neighbor index
// exists for (the naive all-pairs scan is quadratic in this sweep's axis).

// CityConfig drives the node-count sweep. Zero values select a 2000×2000 m
// street grid (100 m blocks), 10 m/s vehicles, ±30% radio-range jitter, a
// 60 s horizon, and 100/200/500 nodes.
type CityConfig struct {
	// Base is the common scenario; its Nodes/Security/Seed are overridden
	// per sweep point, and zero values of Width/Height/Duration/MaxSpeed/
	// Mobility/RangeJitter select the city defaults above.
	Base Scenario
	// Nodes lists the swept node counts (default 100, 200, 500).
	Nodes []int
	// Repeats averages each point over this many seeds (default 3).
	Repeats int
	// Seed is the base seed; repeat k of a point uses Seed + k·7919.
	Seed int64

	Workers      int
	TrialTimeout time.Duration
	Progress     func(TrialUpdate)
	Context      context.Context
}

// sweep fills the engine in for the node-count axis, applying the city
// defaults to the base scenario.
func (cfg CityConfig) sweep() axisSweep[int] {
	if len(cfg.Nodes) == 0 {
		cfg.Nodes = []int{100, 200, 500}
	}
	if cfg.Base.Width == 0 {
		cfg.Base.Width = 2000
	}
	if cfg.Base.Height == 0 {
		cfg.Base.Height = 2000
	}
	if cfg.Base.Duration == 0 {
		cfg.Base.Duration = 60 * time.Second
	}
	if cfg.Base.MaxSpeed == 0 {
		cfg.Base.MaxSpeed = 10
	}
	if cfg.Base.Mobility == RandomWaypointMobility {
		cfg.Base.Mobility = ManhattanMobility
	}
	if cfg.Base.RangeJitter == 0 {
		cfg.Base.RangeJitter = 0.3
	}
	return axisSweep[int]{
		base: cfg.Base, curves: baseline, run: Scenario.RunContext,
		name: "n", axis: cfg.Nodes,
		set:  func(sc *Scenario, n int) { sc.Nodes = n },
		pool: pool{cfg.Repeats, cfg.Seed, cfg.Workers, cfg.TrialTimeout, cfg.Progress, cfg.Context},
	}
}

// FigureCityPDR generates "Packet Delivery Ratio at city scale": delivery
// for AODV vs McCLS as the Manhattan-grid network densifies.
func FigureCityPDR(cfg CityConfig) (Figure, error) {
	return cfg.sweep().figure(pdrSel, Figure{
		ID: "fig9", Title: "Packet Delivery Ratio at city scale",
		XLabel: "nodes in field", YLabel: "packet delivery ratio",
		XColumn: "nodes",
	})
}

// FigureCityOverhead generates "RREQ Ratio at city scale": the control
// overhead each stack pays as route discovery floods grow with the network.
func FigureCityOverhead(cfg CityConfig) (Figure, error) {
	return cfg.sweep().figure(rreqSel, Figure{
		ID: "fig10", Title: "RREQ Ratio at city scale",
		XLabel: "nodes in field", YLabel: "RREQ ratio",
		XColumn: "nodes",
	})
}
