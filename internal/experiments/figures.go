package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"mccls/internal/metrics"
	"mccls/internal/runner"
)

// Series is one labelled curve of a figure.
type Series struct {
	Label string
	X     []float64 // node speed in m/s
	Y     []float64
	// YErr is the half-width of the 95% confidence interval of each Y,
	// computed over the per-seed repeats (Student t). Empty when the
	// series was built without repeat statistics.
	YErr []float64
}

// Figure is a regenerated paper figure: its identity plus the data series
// as plotted.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	// XColumn names the x column in rendered and CSV output; empty means
	// "speed" (the original figures sweep node speed).
	XColumn string
	Series  []Series
}

// TrialUpdate is the per-trial progress record delivered to
// SweepConfig.Progress (one per finished simulation).
type TrialUpdate = runner.Update

// SweepConfig drives a speed sweep. Zero values select the paper's setup.
type SweepConfig struct {
	// Base is the common scenario; its MaxSpeed/Security/Attack/Seed are
	// overridden per sweep point.
	Base Scenario
	// Speeds are the swept maximum node speeds in m/s (default
	// 1, 5, 10, 15, 20 — the paper's x-axis).
	Speeds []float64
	// Repeats averages each point over this many seeds (default 3).
	Repeats int
	// Seed is the base RNG seed; repeat k of a point uses Seed + k·7919.
	Seed int64

	// Workers bounds the parallel trial pool (default GOMAXPROCS; 1
	// forces serial execution). Every trial owns its seed-derived RNGs,
	// so figure output is bit-identical at any worker count.
	Workers int
	// TrialTimeout is the per-trial wall-clock deadline (0 = none); a
	// trial that exceeds it fails the sweep instead of hanging the pool.
	TrialTimeout time.Duration
	// Progress, when non-nil, receives one update per finished trial
	// (serialized calls; keep it fast).
	Progress func(TrialUpdate)
	// Context cancels the whole sweep when done (nil = Background).
	Context context.Context
}

// curve is one labelled configuration swept across a figure's x-axis.
type curve struct {
	label string
	sec   SecurityMode
	// atk overrides the base scenario's attack; the zero value keeps it.
	atk AttackMode
	// online turns on in-network enrollment for this curve.
	online bool
}

// scenarioRunner abstracts the routing substrate (Scenario.RunContext for
// AODV, Scenario.RunDSRContext for DSR) so one sweep engine serves both.
type scenarioRunner func(Scenario, context.Context) (Result, error)

// pool is the repeat and trial-pool plumbing every sweep config carries.
type pool struct {
	repeats  int
	seed     int64
	workers  int
	timeout  time.Duration
	progress func(TrialUpdate)
	ctx      context.Context
}

// axisSweep is the sweep engine behind every figure: curves × axis × repeats
// expand into one flat batch of trials, the batch fans out over the worker
// pool, and the repeats fold back into per-point aggregates. SweepConfig,
// CityConfig and ResilienceConfig each fill one in; they differ only in the
// axis and in which Scenario field a point sets.
type axisSweep[X int | float64] struct {
	base   Scenario
	curves []curve
	name   string // axis name in trial labels
	axis   []X
	set    func(*Scenario, X)
	run    scenarioRunner
	pool
}

// results runs the sweep and returns one SweepResult per curve, in curve
// order. Each trial is fully determined by its scenario (all RNG streams
// derive from the per-trial seed), so the fold is bit-identical at any
// worker count.
func (sw axisSweep[X]) results() ([]SweepResult, error) {
	if sw.repeats == 0 {
		sw.repeats = 3
	}
	if sw.seed == 0 {
		sw.seed = 1
	}
	if sw.ctx == nil {
		sw.ctx = context.Background()
	}
	xs := make([]float64, len(sw.axis))
	for i, x := range sw.axis {
		xs[i] = float64(x)
	}
	run := sw.run
	trials := make([]runner.Trial[metrics.Summary], 0, len(sw.curves)*len(sw.axis)*sw.repeats)
	for _, c := range sw.curves {
		for _, x := range sw.axis {
			for k := 0; k < sw.repeats; k++ {
				sc := sw.base
				sw.set(&sc, x)
				sc.Security = c.sec
				if c.atk != 0 {
					sc.Attack = c.atk
				}
				sc.OnlineEnrollment = sc.OnlineEnrollment || c.online
				sc.Seed = sw.seed + int64(k)*7919
				trials = append(trials, runner.Trial[metrics.Summary]{
					Label: fmt.Sprintf("%s %s=%v seed=%d", c.label, sw.name, x, sc.Seed),
					Run: func(ctx context.Context, obs *runner.Obs) (metrics.Summary, error) {
						res, err := run(sc, ctx)
						obs.Events = res.Events
						return res.Summary, err
					},
				})
			}
		}
	}
	sums, err := runner.Run(sw.ctx, runner.Options{
		Workers:  sw.workers,
		Timeout:  sw.timeout,
		Progress: sw.progress,
	}, trials)
	if err != nil {
		return nil, err
	}

	out := make([]SweepResult, len(sw.curves))
	idx := 0
	for i := range sw.curves {
		r := SweepResult{Speeds: xs}
		for range sw.axis {
			agg := metrics.NewAggregate(sums[idx : idx+sw.repeats])
			idx += sw.repeats
			r.Aggregates = append(r.Aggregates, agg)
			r.Summaries = append(r.Summaries, agg.Pooled)
		}
		out[i] = r
	}
	return out, nil
}

// figure runs the sweep and fills f.Series with every curve projected
// through sel.
func (sw axisSweep[X]) figure(sel metricSel, f Figure) (Figure, error) {
	results, err := sw.results()
	if err != nil {
		return Figure{}, err
	}
	for i, c := range sw.curves {
		f.Series = append(f.Series, results[i].series(c.label, sel))
	}
	return f, nil
}

// sweep fills the engine in for the speed axis.
func (cfg SweepConfig) sweep(curves []curve, run scenarioRunner) axisSweep[float64] {
	if len(cfg.Speeds) == 0 {
		cfg.Speeds = []float64{1, 5, 10, 15, 20}
	}
	return axisSweep[float64]{
		base: cfg.Base, curves: curves, run: run,
		name: "v", axis: cfg.Speeds,
		set:  func(sc *Scenario, v float64) { sc.MaxSpeed = v },
		pool: pool{cfg.Repeats, cfg.Seed, cfg.Workers, cfg.TrialTimeout, cfg.Progress, cfg.Context},
	}
}

// SweepResult holds one curve's statistics across the swept axis.
type SweepResult struct {
	// Speeds is the x-axis: node speeds for SweepConfig, node counts for
	// CityConfig, churn event counts for ResilienceConfig.
	Speeds []float64
	// Summaries pool the repeats of each point (traffic-weighted, what
	// the figures plot).
	Summaries []metrics.Summary
	// Aggregates carry the per-point mean/stddev/95% CI across repeats,
	// aligned with Summaries.
	Aggregates []metrics.Aggregate
}

// Sweep runs the speed sweep for one (security, attack) combination; all
// points and repeats execute concurrently on the trial pool.
func (cfg SweepConfig) Sweep(sec SecurityMode, atk AttackMode) (SweepResult, error) {
	results, err := cfg.sweep([]curve{{label: sec.String(), sec: sec, atk: atk}}, Scenario.RunContext).results()
	if err != nil {
		return SweepResult{}, err
	}
	return results[0], nil
}

// metricSel pairs a pooled-value extractor with the matching per-repeat
// statistic, so a series carries both its plotted value and its error bar.
type metricSel struct {
	value func(metrics.Summary) float64
	stat  func(metrics.Aggregate) metrics.Stat
}

var (
	pdrSel   = metricSel{pdr, func(a metrics.Aggregate) metrics.Stat { return a.PDR }}
	rreqSel  = metricSel{rreqRatio, func(a metrics.Aggregate) metrics.Stat { return a.RREQRatio }}
	delaySel = metricSel{delayMs, func(a metrics.Aggregate) metrics.Stat { return a.DelayMs }}
	dropSel  = metricSel{dropRatio, func(a metrics.Aggregate) metrics.Stat { return a.DropRatio }}
)

func pdr(s metrics.Summary) float64       { return s.PacketDeliveryRatio() }
func rreqRatio(s metrics.Summary) float64 { return s.RREQRatio() }
func delayMs(s metrics.Summary) float64 {
	return float64(s.EndToEndDelay()) / float64(time.Millisecond)
}
func dropRatio(s metrics.Summary) float64 { return s.PacketDropRatio() }

// series projects a sweep result through a metric selector, attaching the
// 95% CI of each point as the error bar.
func (r SweepResult) series(label string, sel metricSel) Series {
	s := Series{Label: label, X: r.Speeds}
	for i, sum := range r.Summaries {
		s.Y = append(s.Y, sel.value(sum))
		if i < len(r.Aggregates) {
			s.YErr = append(s.YErr, sel.stat(r.Aggregates[i]).CI95)
		}
	}
	return s
}

// baseline is the no-attack AODV-vs-McCLS pair shared by Figures 1–4 and
// the city-scale figures.
var baseline = []curve{
	{label: "AODV", sec: Plain, atk: NoAttack},
	{label: "McCLS", sec: McCLSCost, atk: NoAttack},
}

// attacked is the 2-node black hole / rushing grid of Figures 4–5.
var attacked = []curve{
	{label: "AODV black hole", sec: Plain, atk: Blackhole},
	{label: "AODV rushing", sec: Plain, atk: Rushing},
	{label: "McCLS black hole", sec: McCLSCost, atk: Blackhole},
	{label: "McCLS rushing", sec: McCLSCost, atk: Rushing},
}

// Figure1 regenerates "Packet Delivery Ratio" (no attack): AODV vs McCLS
// across node speed.
func Figure1(cfg SweepConfig) (Figure, error) {
	return cfg.sweep(baseline, Scenario.RunContext).figure(pdrSel, Figure{
		ID: "fig1", Title: "Packet Delivery Ratio",
		XLabel: "speed (m/s)", YLabel: "packet delivery ratio",
	})
}

// Figure2 regenerates "RREQ Ratio" (no attack).
func Figure2(cfg SweepConfig) (Figure, error) {
	return cfg.sweep(baseline, Scenario.RunContext).figure(rreqSel, Figure{
		ID: "fig2", Title: "RREQ Ratio",
		XLabel: "speed (m/s)", YLabel: "RREQ ratio",
	})
}

// Figure3 regenerates "End-to-End Delay" (no attack); McCLS pays its
// signature/verification latency per control hop.
func Figure3(cfg SweepConfig) (Figure, error) {
	return cfg.sweep(baseline, Scenario.RunContext).figure(delaySel, Figure{
		ID: "fig3", Title: "End-to-End Delay",
		XLabel: "speed (m/s)", YLabel: "delay (ms)",
	})
}

// Figure4 regenerates "Packet Delivery Ratio under attack": the no-attack
// baselines plus each protocol under 2-node black hole and rushing attacks,
// all six curves in one concurrent batch.
func Figure4(cfg SweepConfig) (Figure, error) {
	curves := append(append([]curve{}, baseline...), attacked...)
	return cfg.sweep(curves, Scenario.RunContext).figure(pdrSel, Figure{
		ID: "fig4", Title: "Packet Delivery Ratio under attack",
		XLabel: "speed (m/s)", YLabel: "packet delivery ratio",
	})
}

// Figure5 regenerates "Packet Drop Ratio": the fraction of sourced data
// absorbed by the attackers for each protocol × attack combination.
func Figure5(cfg SweepConfig) (Figure, error) {
	return cfg.sweep(attacked, Scenario.RunContext).figure(dropSel, Figure{
		ID: "fig5", Title: "Packet Drop Ratio",
		XLabel: "speed (m/s)", YLabel: "packet drop ratio",
	})
}

// Render formats a figure as an aligned text table, one row per speed;
// values carry their ±95% CI when repeat statistics are available.
// xColumn is the x-axis column name shared by Render and CSV.
func (f Figure) xColumn() string {
	if f.XColumn != "" {
		return f.XColumn
	}
	return "speed"
}

func (f Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (%s vs %s)\n", f.ID, f.Title, f.YLabel, f.XLabel)
	fmt.Fprintf(&b, "%-8s", f.xColumn())
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  %22s", s.Label)
	}
	b.WriteByte('\n')
	if len(f.Series) == 0 {
		return b.String()
	}
	for i, x := range f.Series[0].X {
		fmt.Fprintf(&b, "%-8.0f", x)
		for _, s := range f.Series {
			if i < len(s.YErr) {
				fmt.Fprintf(&b, "  %22s", fmt.Sprintf("%.3f ±%.3f", s.Y[i], s.YErr[i]))
			} else {
				fmt.Fprintf(&b, "  %22.3f", s.Y[i])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the figure as comma-separated values with a header row; each
// series with repeat statistics gains a "<label> ci95" column holding the
// half-width of its 95% confidence interval.
func (f Figure) CSV() string {
	var b strings.Builder
	b.WriteString(f.xColumn())
	for _, s := range f.Series {
		b.WriteString(",")
		b.WriteString(s.Label)
		if len(s.YErr) > 0 {
			b.WriteString(",")
			b.WriteString(s.Label + " ci95")
		}
	}
	b.WriteByte('\n')
	if len(f.Series) == 0 {
		return b.String()
	}
	for i, x := range f.Series[0].X {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range f.Series {
			fmt.Fprintf(&b, ",%.4f", s.Y[i])
			if i < len(s.YErr) {
				fmt.Fprintf(&b, ",%.4f", s.YErr[i])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
