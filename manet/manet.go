// Package manet is the public API of the MANET evaluation substrate: a
// deterministic discrete-event simulator (random-waypoint mobility, disk
// wireless medium, full AODV) with the McCLS routing-authentication
// extension and the paper's black hole and rushing attackers.
//
// Run one scenario:
//
//	res, err := manet.Scenario{
//		MaxSpeed: 10,
//		Security: manet.McCLS,
//		Attack:   manet.Blackhole,
//	}.Run()
//	fmt.Println(res.Headline())
//
// A Result carries every routing counter of the run summed over its nodes
// (routing.Stats: traffic, control packets, every drop reason) with the
// paper's four metrics as methods, plus the radio, enrollment and
// event-loop counters.
//
// Or regenerate a whole paper figure — every sweep point and repeat runs
// concurrently on a bounded worker pool (default GOMAXPROCS workers) with
// bit-identical output at any worker count, and each point carries a 95%
// confidence interval over its repeats:
//
//	fig, err := manet.RunFigure("fig5", manet.SweepConfig{})
//	fmt.Print(fig.Render())
//
// manet.Figures lists what can be regenerated.
package manet

import (
	"io"

	"mccls/internal/experiments"
)

// Core types, aliased from the implementation.
type (
	// Scenario is one simulation configuration; zero values select the
	// paper's §6 setup (20 nodes, 1500×300 m, 10 CBR flows, 2 attackers).
	Scenario = experiments.Scenario
	// Result is a run's routing counters and metrics plus radio-level
	// counters.
	Result = experiments.Result
	// SweepConfig drives a figure's sweep: the base scenario, the swept
	// axis values (empty selects the figure's own), repeats and seed.
	// Workers, TrialTimeout and Progress control the parallel trial pool;
	// output is bit-identical at any worker count.
	SweepConfig = experiments.SweepConfig
	// TrialUpdate is the per-trial progress record (wall time, simulator
	// events, events/sec) delivered to SweepConfig.Progress.
	TrialUpdate = experiments.TrialUpdate
	// Figure is a regenerated paper figure (labelled data series).
	Figure = experiments.Figure
	// SecurityMode selects plain AODV or McCLS-AODV.
	SecurityMode = experiments.SecurityMode
	// AttackMode selects the adversary.
	AttackMode = experiments.AttackMode
	// Table1Row is one scheme's Table 1 entry with measured timings.
	Table1Row = experiments.Table1Row
)

// Security modes.
const (
	// AODV is plain, unauthenticated AODV.
	AODV = experiments.Plain
	// McCLS is McCLS-AODV with the calibrated crypto cost model (fast;
	// identical routing behaviour to real crypto).
	McCLS = experiments.McCLSCost
	// McCLSReal is McCLS-AODV running real pairing cryptography on every
	// control packet.
	McCLSReal = experiments.McCLSReal
)

// Attack modes.
const (
	NoAttack  = experiments.NoAttack
	Blackhole = experiments.Blackhole
	Rushing   = experiments.Rushing
	// Grayhole is the insider selective-forwarding extension: attackers
	// hold valid keys, so signatures alone do not exclude them.
	Grayhole = experiments.Grayhole
)

// Manhattan is the Scenario.Mobility value that constrains nodes to a grid
// of orthogonal streets with probabilistic turns — the urban city-scale
// pattern; the zero value is the paper's random waypoint.
const Manhattan = experiments.ManhattanMobility

// Figures is the table of regenerable figures — the paper's, then the
// extensions — in cmd/manetsim's -fig order. Each row names its id, title,
// axis family, curves and metric.
var Figures = experiments.Figures

// RunFigure regenerates the figure whose Figures row has the given ID.
func RunFigure(id string, cfg SweepConfig) (Figure, error) {
	return experiments.RunFigure(id, cfg)
}

// Table1 regenerates the paper's scheme-comparison table with measured
// sign/verify timings (iters iterations per scheme; rng may be nil for
// crypto/rand).
func Table1(iters int, rng io.Reader) ([]Table1Row, error) {
	return experiments.Table1(iters, rng)
}

// RenderTable1 formats Table 1 rows as an aligned text table.
func RenderTable1(rows []Table1Row) string { return experiments.RenderTable1(rows) }
