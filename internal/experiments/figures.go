package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	"mccls/internal/fan"
	"mccls/internal/routing"
)

// Series is one labelled curve of a figure.
type Series struct {
	Label string
	X     []float64 // the swept axis: node speed in m/s, churn events or node count
	Y     []float64
	// YErr is the half-width of the 95% confidence interval of each Y,
	// computed over the per-seed repeats (Student t); 0 with fewer than
	// two repeats. Plot as Y ± YErr.
	YErr []float64
}

// Figure is a regenerated paper figure: its identity plus the data series
// as plotted.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	// XColumn names the x column in rendered and CSV output.
	XColumn string
	Series  []Series
}

// TrialUpdate is the per-trial progress record delivered to
// SweepConfig.Progress (one per finished simulation).
type TrialUpdate struct {
	// Index is the trial's position in the sweep; Done counts finished
	// trials including this one, out of Total.
	Index, Done, Total int
	Label              string
	Err                error
	// Wall is the trial's wall-clock duration, Events the simulator events
	// it processed and EventsPerSec their rate (0 when Events is 0).
	Wall         time.Duration
	Events       uint64
	EventsPerSec float64
}

// SweepConfig drives every figure's sweep. Zero values select the figure's
// own setup (the paper's, for Figures 1–5).
type SweepConfig struct {
	// Base is the common scenario. Each trial overrides its Security,
	// Attack, Seed and the field the figure's axis sweeps; the axis family
	// fills its own defaults into the fields Base leaves zero.
	Base Scenario
	// Axis lists the swept values (empty selects the figure's default axis:
	// speeds 1–20 m/s, 0–4 churn events, or 100/200/500 nodes).
	Axis []float64
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
}

// Axis is a family of sweeps over one Scenario quantity.
type Axis struct {
	// Name tags a point in trial labels ("v=5"); XLabel and XColumn head
	// the axis in a figure's rendered and CSV output.
	Name, XLabel, XColumn string
	// Default lists the swept values when SweepConfig.Axis is empty.
	Default []float64
	// integer marks a family whose points are counts: a fractional point
	// fails the sweep instead of being truncated by set.
	integer bool
	// set applies one point to a trial's scenario; base, when non-nil,
	// fills the family's defaults into the zero fields of the sweep's Base.
	set  func(*Scenario, float64)
	base func(*Scenario)
}

var (
	// speedAxis is the paper's x-axis: maximum node speed.
	speedAxis = &Axis{
		Name: "v", XLabel: "speed (m/s)", XColumn: "speed", Default: []float64{1, 5, 10, 15, 20},
		set: func(sc *Scenario, v float64) { sc.MaxSpeed = v },
	}
	// churnAxis is the benign-failure counterpart of the attack figures:
	// crash/restart cycles per run, in a 900 s run of the paper's field at
	// 5 m/s. The churn schedule at a given (events, seed) point comes from a
	// seed-derived stream independent of the security mode, so every curve
	// suffers the identical crash timeline (paired comparison).
	churnAxis = &Axis{
		Name: "churn", XLabel: "crash/restart events per run", XColumn: "churn",
		Default: []float64{0, 1, 2, 3, 4}, integer: true,
		set: func(sc *Scenario, events float64) { sc.ChurnEvents = int(events) },
		base: func(sc *Scenario) {
			if sc.Duration == 0 {
				sc.Duration = 900 * time.Second
			}
			if sc.MaxSpeed == 0 {
				sc.MaxSpeed = 5
			}
		},
	}
	// nodesAxis grows the network from a neighborhood to a city: node count
	// in a fixed 2000×2000 m field (so it doubles as a density axis) of
	// 10 m/s vehicles on a Manhattan street grid with ±30% radio-range
	// jitter over the Scenario's 300 s horizon — the regime the spatial
	// neighbor index exists for (the naive all-pairs scan is quadratic in
	// this axis).
	nodesAxis = &Axis{
		Name: "n", XLabel: "nodes in field", XColumn: "nodes",
		Default: []float64{100, 200, 500}, integer: true,
		set: func(sc *Scenario, n float64) { sc.Nodes = int(n) },
		base: func(sc *Scenario) {
			if sc.Width == 0 {
				sc.Width = 2000
			}
			if sc.Height == 0 {
				sc.Height = 2000
			}
			if sc.MaxSpeed == 0 {
				sc.MaxSpeed = 10
			}
			if sc.Mobility == RandomWaypointMobility {
				sc.Mobility = ManhattanMobility
			}
			if sc.RangeJitter == 0 {
				sc.RangeJitter = 0.3
			}
		},
	}
)

// Curve is one labelled configuration swept across a figure's x-axis.
type Curve struct {
	Label    string
	Security SecurityMode
	// Attack overrides the base scenario's attack; the zero value keeps it.
	Attack AttackMode
	// Online turns on in-network enrollment for this curve.
	Online bool
}

// Metric is what a figure plots: one function of a counter record. A point
// plots it over its pooled repeats (routing.Stats.Add, so runs weigh in by
// traffic volume) and takes its error bar from its value on each repeat.
type Metric struct {
	YLabel string
	value  func(routing.Stats) float64
}

var (
	pdrMetric   = Metric{"packet delivery ratio", routing.Stats.PacketDeliveryRatio}
	rreqMetric  = Metric{"RREQ ratio", routing.Stats.RREQRatio}
	delayMetric = Metric{"delay (ms)", func(s routing.Stats) float64 {
		return float64(s.EndToEndDelay()) / float64(time.Millisecond)
	}}
	dropMetric = Metric{"packet drop ratio", routing.Stats.PacketDropRatio}
)

// FigureSpec is one row of the figure table: everything that distinguishes
// one regenerated figure from another.
type FigureSpec struct {
	ID, Title string
	Axis      *Axis
	Curves    []Curve
	Metric    Metric
	// DSR runs the trials on the DSR substrate instead of AODV.
	DSR bool
}

// baseline is the no-attack AODV-vs-McCLS pair of Figures 1–4 and the
// city-scale figures.
var baseline = []Curve{
	{Label: "AODV", Security: Plain, Attack: NoAttack},
	{Label: "McCLS", Security: McCLSCost, Attack: NoAttack},
}

// attacked is the 2-node black hole / rushing grid of Figures 4–5.
var attacked = []Curve{
	{Label: "AODV black hole", Security: Plain, Attack: Blackhole},
	{Label: "AODV rushing", Security: Plain, Attack: Rushing},
	{Label: "McCLS black hole", Security: McCLSCost, Attack: Blackhole},
	{Label: "McCLS rushing", Security: McCLSCost, Attack: Rushing},
}

// attackedDSR is the same grid on the DSR substrate; the expected shape
// mirrors Figure 5 (nonzero drops for plain DSR, zero for McCLS-DSR).
var attackedDSR = []Curve{
	{Label: "DSR black hole", Security: Plain, Attack: Blackhole},
	{Label: "DSR rushing", Security: Plain, Attack: Rushing},
	{Label: "McCLS-DSR black hole", Security: McCLSCost, Attack: Blackhole},
	{Label: "McCLS-DSR rushing", Security: McCLSCost, Attack: Rushing},
}

// underChurn pays for churn differently: AODV loses routes; McCLS also
// loses keys and re-enrolls through the in-network KGC. Neither sets an
// attack (Base's is kept).
var underChurn = []Curve{
	{Label: "AODV", Security: Plain},
	{Label: "McCLS", Security: McCLSCost, Online: true},
}

// Figures is the figure table, in cmd/manetsim's -fig order: the paper's
// Figures 1–5, then the extensions with no paper counterpart (DSR
// generality, resilience under churn, city scale).
var Figures = []FigureSpec{
	{ID: "fig1", Title: "Packet Delivery Ratio", Axis: speedAxis, Curves: baseline, Metric: pdrMetric},
	{ID: "fig2", Title: "RREQ Ratio", Axis: speedAxis, Curves: baseline, Metric: rreqMetric},
	{ID: "fig3", Title: "End-to-End Delay", Axis: speedAxis, Curves: baseline, Metric: delayMetric},
	{ID: "fig4", Title: "Packet Delivery Ratio under attack", Axis: speedAxis, Curves: slices.Concat(baseline, attacked), Metric: pdrMetric},
	{ID: "fig5", Title: "Packet Drop Ratio", Axis: speedAxis, Curves: attacked, Metric: dropMetric},
	{ID: "figDSR", Title: "Packet Drop Ratio (DSR extension)", Axis: speedAxis, Curves: attackedDSR, Metric: dropMetric, DSR: true},
	{ID: "fig7", Title: "Packet Delivery Ratio under churn", Axis: churnAxis, Curves: underChurn, Metric: pdrMetric},
	{ID: "fig8", Title: "RREQ Ratio under churn", Axis: churnAxis, Curves: underChurn, Metric: rreqMetric},
	{ID: "fig9", Title: "Packet Delivery Ratio at city scale", Axis: nodesAxis, Curves: baseline, Metric: pdrMetric},
	{ID: "fig10", Title: "RREQ Ratio at city scale", Axis: nodesAxis, Curves: baseline, Metric: rreqMetric},
}

// RunFigure regenerates the figure with the given table id: every curve,
// sweep point and repeat runs concurrently on the trial pool, and each
// point's repeats fold into one plotted value and its error bar.
func RunFigure(id string, cfg SweepConfig) (Figure, error) {
	for _, spec := range Figures {
		if spec.ID != id {
			continue
		}
		xs, runs, err := cfg.results(spec.Axis, spec.Curves, spec.DSR)
		if err != nil {
			return Figure{}, err
		}
		f := Figure{
			ID: spec.ID, Title: spec.Title, YLabel: spec.Metric.YLabel,
			XLabel: spec.Axis.XLabel, XColumn: spec.Axis.XColumn,
		}
		for i, c := range spec.Curves {
			s := Series{Label: c.Label, X: xs}
			for _, repeats := range runs[i] {
				var pooled routing.Stats
				vals := make([]float64, len(repeats))
				for k, r := range repeats {
					pooled.Add(r)
					vals[k] = spec.Metric.value(r)
				}
				s.Y = append(s.Y, spec.Metric.value(pooled))
				s.YErr = append(s.YErr, ci95(vals))
			}
			f.Series = append(f.Series, s)
		}
		return f, nil
	}
	return Figure{}, fmt.Errorf("experiments: no figure %q in the table", id)
}

// results is the sweep engine behind every figure: curves × axis × repeats
// expand into one flat batch of trials, the batch fans out over the worker
// pool, and the counters come back as runs[curve][point][repeat] beside the
// axis points swept. Each trial is fully determined by its scenario (all
// RNG streams derive from the per-trial seed), so runs is bit-identical at
// any worker count.
func (cfg SweepConfig) results(ax *Axis, curves []Curve, dsr bool) (xs []float64, runs [][][]routing.Stats, err error) {
	if len(cfg.Axis) == 0 {
		cfg.Axis = ax.Default
	}
	xs = slices.Clone(cfg.Axis) // a figure must not alias the caller's (or the family's) axis
	for _, x := range xs {
		if ax.integer && x != math.Trunc(x) {
			return nil, nil, fmt.Errorf("experiments: axis point %s=%v is not a whole number", ax.Name, x)
		}
	}
	if ax.base != nil {
		ax.base(&cfg.Base)
	}
	if cfg.Repeats < 0 {
		return nil, nil, fmt.Errorf("experiments: %d repeats", cfg.Repeats)
	}
	if cfg.Repeats == 0 {
		cfg.Repeats = 3
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	var scs []Scenario
	var labels []string
	for _, c := range curves {
		for _, x := range xs {
			for k := 0; k < cfg.Repeats; k++ {
				sc := cfg.Base
				ax.set(&sc, x)
				sc.Security = c.Security
				if c.Attack != 0 {
					sc.Attack = c.Attack
				}
				sc.OnlineEnrollment = sc.OnlineEnrollment || c.Online
				sc.Seed = cfg.Seed + int64(k)*7919
				scs = append(scs, sc)
				labels = append(labels, fmt.Sprintf("%s %s=%v seed=%d", c.Label, ax.Name, x, sc.Seed))
			}
		}
	}
	stats, err := cfg.runTrials(labels, func(ctx context.Context, i int) (Result, error) {
		return scs[i].run(ctx, dsr)
	})
	if err != nil {
		return nil, nil, err
	}
	for range curves {
		points := make([][]routing.Stats, len(xs))
		for j := range points {
			points[j], stats = stats[:cfg.Repeats], stats[cfg.Repeats:]
		}
		runs = append(runs, points)
	}
	return xs, runs, nil
}

// runTrials runs trial(ctx, 0), …, trial(ctx, n-1) for n labels on a
// fan.Out of cfg.Workers goroutines (≤ 0: GOMAXPROCS; 1: inline, in order)
// and returns their counters in trial order. A trial's ctx expires after
// cfg.TrialTimeout (0: never) and is cancelled by the sweep's first failure,
// which a trial not yet started then skips; a trial's panic is its error,
// with its stack. The error returned is the lowest-index failure other than
// that cancellation. cfg.Progress gets one update per finished trial.
func (cfg SweepConfig) runTrials(labels []string, trial func(context.Context, int) (Result, error)) ([]routing.Stats, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b := &batch{cfg: cfg, labels: labels, trial: trial, ctx: ctx, cancel: cancel,
		stats: make([]routing.Stats, len(labels)), errs: make([]error, len(labels))}
	fan.Out(workers, len(labels), b, (*batch).run)
	i := slices.IndexFunc(b.errs, func(err error) bool { return err != nil && !errors.Is(err, context.Canceled) })
	if i < 0 {
		i = slices.IndexFunc(b.errs, func(err error) bool { return err != nil })
	}
	if i >= 0 {
		return nil, fmt.Errorf("experiments: trial %d (%s): %w", i, labels[i], b.errs[i])
	}
	return b.stats, nil
}

// batch is a runTrials call's state; mu serializes Progress and done.
type batch struct {
	cfg    SweepConfig
	labels []string
	trial  func(context.Context, int) (Result, error)
	ctx    context.Context
	cancel context.CancelFunc
	stats  []routing.Stats
	errs   []error
	mu     sync.Mutex
	done   int
}

// run is task i of runTrials' fan.Out: trial i, unless a failure came first.
func (b *batch) run(i int) {
	if b.ctx.Err() != nil {
		return
	}
	start := time.Now()
	ctx := b.ctx
	if b.cfg.TrialTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, b.cfg.TrialTimeout)
		defer cancel()
	}
	var res Result
	func() {
		defer func() {
			if v := recover(); v != nil {
				b.errs[i] = fmt.Errorf("panicked: %v\n%s", v, debug.Stack())
			}
		}()
		res, b.errs[i] = b.trial(ctx, i)
	}()
	if b.stats[i] = res.Stats; b.errs[i] != nil {
		b.cancel()
	}
	wall := time.Since(start)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.done++
	if b.cfg.Progress != nil {
		u := TrialUpdate{Index: i, Done: b.done, Total: len(b.labels), Label: b.labels[i], Err: b.errs[i],
			Wall: wall, Events: res.Events}
		if secs := wall.Seconds(); secs > 0 && res.Events > 0 {
			u.EventsPerSec = float64(res.Events) / secs
		}
		b.cfg.Progress(u)
	}
}

// t95 holds the two-sided 95% Student-t critical values for 1–30 degrees of
// freedom; beyond that the normal approximation (1.96) is used. Sweeps
// typically repeat 3 seeds per point (df = 2, t = 4.303), where the normal
// quantile would understate the interval by more than 2×.
var t95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// ci95 is the half-width of the two-sided 95% confidence interval for the
// mean of vals (Student t over the sample standard deviation); 0 when
// fewer than two values exist — no NaN-by-division.
func ci95(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / float64(n)
	var ss float64
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	t := 1.96
	if df := n - 1; df <= len(t95) {
		t = t95[df-1]
	}
	return t * math.Sqrt(ss/float64(n-1)) / math.Sqrt(float64(n))
}

// Render formats a figure as an aligned text table, one row per axis point,
// each value with its ±95% CI.
func (f Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (%s vs %s)\n", f.ID, f.Title, f.YLabel, f.XLabel)
	fmt.Fprintf(&b, "%-8s", f.XColumn)
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
			fmt.Fprintf(&b, "  %22s", fmt.Sprintf("%.3f ±%.3f", s.Y[i], s.YErr[i]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the figure as comma-separated values with a header row; each
// series is followed by its "<label> ci95" column, the half-width of its 95%
// confidence interval.
func (f Figure) CSV() string {
	var b strings.Builder
	b.WriteString(f.XColumn)
	for _, s := range f.Series {
		fmt.Fprintf(&b, ",%s,%s ci95", s.Label, s.Label)
	}
	b.WriteByte('\n')
	if len(f.Series) == 0 {
		return b.String()
	}
	for i, x := range f.Series[0].X {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range f.Series {
			fmt.Fprintf(&b, ",%.4f,%.4f", s.Y[i], s.YErr[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
