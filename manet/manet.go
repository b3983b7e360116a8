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
//	fmt.Println(res.Summary)
//
// Or regenerate a whole paper figure — every sweep point and repeat runs
// concurrently on a bounded worker pool (default GOMAXPROCS workers) with
// bit-identical output at any worker count, and each point carries a 95%
// confidence interval over its repeats:
//
//	fig, err := manet.Figure5(manet.SweepConfig{})
//	fmt.Print(fig.Render())
package manet

import (
	"context"
	"io"

	"mccls/internal/experiments"
	"mccls/internal/fault"
	"mccls/internal/metrics"
	"mccls/internal/radio"
	"mccls/internal/secrouting"
)

// Core types, aliased from the implementation.
type (
	// Scenario is one simulation configuration; zero values select the
	// paper's §6 setup (20 nodes, 1500×300 m, 10 CBR flows, 2 attackers).
	Scenario = experiments.Scenario
	// Result is a run's metrics plus radio-level counters.
	Result = experiments.Result
	// Summary holds the aggregated protocol counters and computes the
	// paper's four metrics.
	Summary = metrics.Summary
	// Aggregate is the per-sweep-point statistic across repeated seeds:
	// the pooled summary plus mean/stddev/95% CI of each headline metric.
	Aggregate = metrics.Aggregate
	// Stat is one metric's mean/stddev/95% CI over repeats.
	Stat = metrics.Stat
	// SweepConfig drives a node-speed sweep for the figures. Workers,
	// TrialTimeout and Progress control the parallel trial pool; output
	// is bit-identical at any worker count.
	SweepConfig = experiments.SweepConfig
	// SweepResult is one curve's per-point summaries and aggregates.
	SweepResult = experiments.SweepResult
	// TrialUpdate is the per-trial progress record (wall time, simulator
	// events, events/sec) delivered to SweepConfig.Progress.
	TrialUpdate = experiments.TrialUpdate
	// Figure is a regenerated paper figure (labelled data series).
	Figure = experiments.Figure
	// Series is one labelled curve.
	Series = experiments.Series
	// SecurityMode selects plain AODV or McCLS-AODV.
	SecurityMode = experiments.SecurityMode
	// AttackMode selects the adversary.
	AttackMode = experiments.AttackMode
	// Table1Row is one scheme's Table 1 entry with measured timings.
	Table1Row = experiments.Table1Row

	// MobilityModel selects the movement model (random waypoint, Manhattan
	// street grid, or highway lanes).
	MobilityModel = experiments.MobilityModel
	// GridStats reports the spatial neighbor index's work for one run
	// (rebuilds, occupied cells, per-query candidate counts).
	GridStats = radio.GridStats
	// CityConfig drives the city-scale node-count sweep (figures 9–10):
	// AODV vs McCLS on a Manhattan street grid with heterogeneous radio
	// ranges as the network densifies.
	CityConfig = experiments.CityConfig

	// ResilienceConfig drives the churn sweep (figures 7–8): plain AODV vs
	// McCLS-AODV with online enrollment as crash/restart events grow.
	ResilienceConfig = experiments.ResilienceConfig
	// FaultSchedule is an explicit fault-injection plan for one run:
	// node crashes, link/region outages and loss windows.
	FaultSchedule = fault.Schedule
	// Crash is one node crash (and optional restart) in a FaultSchedule.
	Crash = fault.Crash
	// LinkOutage silences one link for a time window.
	LinkOutage = fault.LinkOutage
	// RegionOutage silences every link crossing a disk for a time window.
	RegionOutage = fault.RegionOutage
	// LossWindow raises the frame-loss probability for a time window.
	LossWindow = fault.LossWindow
	// ChurnConfig parameterizes a randomly drawn crash/restart schedule.
	ChurnConfig = fault.ChurnConfig
	// EnrollConfig parameterizes the online in-network KGC enrollment
	// protocol (timeout, capped exponential backoff, flood TTL).
	EnrollConfig = secrouting.EnrollConfig
	// EnrollStats counts enrollment attempts, timeouts, successes and the
	// largest backoff any node waited.
	EnrollStats = secrouting.EnrollStats
)

// Churn draws a random crash/restart schedule: cfg.Events crashes over
// cfg.Duration with restarts after an exponential-ish downtime. The result
// is a pure function of the rng stream, so one seed gives one timeline.
var Churn = fault.Churn

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

// Mobility models.
const (
	// RandomWaypoint is the paper's model and the Scenario zero value.
	RandomWaypoint = experiments.RandomWaypointMobility
	// Manhattan constrains nodes to a grid of orthogonal streets with
	// probabilistic turns — the urban city-scale pattern.
	Manhattan = experiments.ManhattanMobility
	// Highway moves nodes along parallel wrap-around lanes, alternating
	// direction by lane.
	Highway = experiments.HighwayMobility
)

// ExplicitZero marks a numeric Scenario field as "really zero" where the
// plain zero value would select a paper default: Attackers: ExplicitZero
// means no attackers, GrayholeDropProb: ExplicitZero a gray hole that
// never drops.
const ExplicitZero = experiments.ExplicitZero

// Figure regenerators, one per paper figure, plus the DSR generality
// extension (Scenario.RunDSR runs a single DSR scenario).
var (
	Figure1   = experiments.Figure1   // Packet Delivery Ratio vs speed
	Figure2   = experiments.Figure2   // RREQ Ratio vs speed
	Figure3   = experiments.Figure3   // End-to-End Delay vs speed
	Figure4   = experiments.Figure4   // Packet Delivery Ratio under attack
	Figure5   = experiments.Figure5   // Packet Drop Ratio under attack
	FigureDSR = experiments.FigureDSR // extension: drop ratio on the DSR substrate

	// FigureResilience (fig7) and FigureResilienceOverhead (fig8) sweep
	// node churn instead of speed: delivery and control overhead for plain
	// AODV vs the full McCLS stack re-enrolling through an in-network KGC.
	FigureResilience         = experiments.FigureResilience
	FigureResilienceOverhead = experiments.FigureResilienceOverhead

	// FigureCityPDR (fig9) and FigureCityOverhead (fig10) sweep node count
	// instead of speed: delivery and control overhead at city scale, on a
	// Manhattan street grid with heterogeneous radio ranges.
	FigureCityPDR      = experiments.FigureCityPDR
	FigureCityOverhead = experiments.FigureCityOverhead
)

// Table1 regenerates the paper's scheme-comparison table with measured
// sign/verify timings (iters iterations per scheme; rng may be nil for
// crypto/rand).
func Table1(iters int, rng io.Reader) ([]Table1Row, error) {
	return experiments.Table1(iters, rng)
}

// Table1Context is Table1 under a context, checked between the (slow)
// per-scheme benchmarks.
func Table1Context(ctx context.Context, iters int, rng io.Reader) ([]Table1Row, error) {
	return experiments.Table1Context(ctx, iters, rng)
}

// RenderTable1 formats Table 1 rows as an aligned text table.
func RenderTable1(rows []Table1Row) string { return experiments.RenderTable1(rows) }
