// Command manetsim regenerates the paper's simulation figures (Figures
// 1–5 plus the DSR extension): AODV vs McCLS-AODV across node speed, with
// and without 2-node black hole and rushing attacks. Figures 7–8 are the
// resilience extension: delivery and control overhead under node churn,
// with the McCLS curve enrolling online through an in-network KGC. Figures
// 9–10 are the city-scale extension: delivery and overhead versus node
// count on a Manhattan street grid with heterogeneous radio ranges. Every
// sweep point and repeat of a figure runs concurrently on a bounded worker
// pool; output is bit-identical at any -parallel value.
//
// Usage:
//
//	manetsim -fig 1                     # one figure
//	manetsim -all                       # all five + DSR + resilience + city, each at its own scale
//	manetsim -fig 5 -csv                # machine-readable output
//	manetsim -fig 3 -duration 900s -repeats 5 -seed 42
//	manetsim -fig 7 -churn 0,2,4        # churn sweep, custom x-axis
//	manetsim -fig 9 -citynodes 100,500,2000  # city sweep, custom x-axis
//	manetsim -all -parallel 8 -progress # 8 workers, per-trial progress
//	manetsim -all -timeout 2m           # per-trial wall-clock deadline
//	manetsim -table 1 [-iters N] [-csv] # Table 1: the CLS scheme comparison
//
// Table 1 extends the paper's operation-count comparison of AP, ZWXF, YHG
// and McCLS with wall-clock sign/verify timings measured on this machine's
// BN254 substrate; per-primitive timings are the repository benchmark's
// per-layer metrics (bash bench/run.sh --workload auth_warm --trace 1).
// Simulator throughput and the spatial-index counters are the sim_paper and
// sim_city workloads of the repository benchmark (bash bench/run.sh
// --workload sim_city --trace 1).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mccls/manet"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "manetsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("manetsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.Int("fig", 0, "figure to regenerate (1-5; 6 = DSR extension; 7-8 = churn resilience; 9-10 = city scale)")
	all := fs.Bool("all", false, "regenerate all figures including the DSR, resilience and city-scale extensions")
	table := fs.Int("table", 0, "table to regenerate (1 = the CLS scheme comparison) instead of a figure")
	iters := fs.Int("iters", 10, "sign/verify iterations per scheme (-table 1)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	duration := fs.Duration("duration", 0, "simulated time per run (0 = the figure's own: 300s, 900s for figures 7-8)")
	repeats := fs.Int("repeats", 3, "seeds averaged per sweep point")
	seed := fs.Int64("seed", 1, "base RNG seed")
	speeds := fs.String("speeds", "", "comma-separated node speeds in m/s (empty = 1,5,10,15,20)")
	churn := fs.String("churn", "", "comma-separated crash/restart event counts of figures 7-8 (empty = 0,1,2,3,4)")
	nodes := fs.Int("nodes", 0, "number of nodes (0 = 20)")
	cityNodes := fs.String("citynodes", "", "comma-separated node counts swept by the city-scale figures 9-10 (empty = 100,200,500)")
	flows := fs.Int("flows", 0, "CBR flows (0 = 10)")
	parallel := fs.Int("parallel", 0, "trial worker pool size (0 = GOMAXPROCS, 1 = serial)")
	timeout := fs.Duration("timeout", 0, "per-trial wall-clock deadline (0 = none)")
	progress := fs.Bool("progress", false, "print one line per finished trial to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *table != 0 {
		return table1(*table, *iters, *csv, stdout)
	}
	if !*all && (*fig < 1 || *fig > len(manet.Figures)) {
		fs.Usage()
		return fmt.Errorf("pass -fig 1..%d or -all", len(manet.Figures))
	}
	if *nodes < 0 || *nodes == 1 {
		return fmt.Errorf("-nodes %d: need at least 2 nodes", *nodes)
	}
	if *flows < 0 {
		return fmt.Errorf("-flows %d: need at least 1 flow", *flows)
	}
	if *repeats < 1 {
		return fmt.Errorf("-repeats %d: need at least 1 seed per point", *repeats)
	}
	if *duration < 0 {
		return fmt.Errorf("-duration %v: need a positive simulated time", *duration)
	}
	// One parsed axis per family, keyed by the family's name in the figure
	// table; integer axes reject fractions at the flag, and an empty one
	// leaves the figure its own.
	axes := map[string][]float64{}
	var err error
	if axes["v"], err = parseList(*speeds, "speed", 0, parseFloat); err != nil {
		return err
	}
	if axes["churn"], err = parseInts(*churn, "churn count", -1); err != nil {
		return err
	}
	if axes["n"], err = parseInts(*cityNodes, "node count", 1); err != nil {
		return err
	}

	// The table footer's trial count comes off the progress stream, which
	// also powers the optional -progress trace. The base scenario is shared
	// by every figure, and its zero fields are each figure's own; -nodes
	// does not reach figures 9-10, whose axis is the node count.
	trials := 0
	cfg := manet.SweepConfig{
		Base:         manet.Scenario{Duration: *duration, Nodes: *nodes, Flows: *flows},
		Repeats:      *repeats,
		Seed:         *seed,
		Workers:      *parallel,
		TrialTimeout: *timeout,
		Progress: func(u manet.TrialUpdate) {
			trials++
			if *progress {
				status := "ok"
				if u.Err != nil {
					status = u.Err.Error()
				}
				fmt.Fprintf(stderr, "[%3d/%3d] %-36s %8.1fms %9d ev %12.0f ev/s  %s\n",
					u.Done, u.Total, u.Label,
					float64(u.Wall)/float64(time.Millisecond),
					u.Events, u.EventsPerSec, status)
			}
		},
	}

	first, last := *fig, *fig
	if *all {
		first, last = 1, len(manet.Figures)
	}
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for n := first; n <= last; n++ {
		spec := manet.Figures[n-1]
		trials = 0
		var ok bool
		if cfg.Axis, ok = axes[spec.Axis.Name]; !ok {
			return fmt.Errorf("figure %d: no flag feeds axis family %q", n, spec.Axis.Name)
		}
		start := time.Now()
		figure, err := runFigure(spec.ID, cfg)
		if err != nil {
			return fmt.Errorf("figure %d: %w", n, err)
		}
		wall := time.Since(start)
		if *csv {
			fmt.Fprint(stdout, figure.CSV())
		} else {
			fmt.Fprint(stdout, figure.Render())
			fmt.Fprintf(stdout, "(regenerated in %v, %d trials on %d workers)\n\n",
				wall.Round(time.Millisecond), trials, workers)
		}
	}
	return nil
}

// runFigure is manet.RunFigure; tests swap it to see the sweep a flag set
// builds without running it.
var runFigure = manet.RunFigure

// parseList parses a comma-separated axis flag (-speeds, -churn, -citynodes)
// into distinct numbers strictly greater than `above`: a speed must be
// positive, a node count at least 2 to form a network, and a churn count may
// be zero (the fault-free baseline anchors that sweep). A duplicate would
// silently double-count a sweep point. The empty string is the nil axis.
func parseList[T int | float64](s, what string, above T, parse func(string) (T, error)) ([]T, error) {
	if s == "" {
		return nil, nil
	}
	var out []T
	seen := map[T]bool{}
	for _, part := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad %s %q: %w", what, part, err)
		}
		if v <= above {
			return nil, fmt.Errorf("%s %q must be greater than %v", what, part, above)
		}
		if seen[v] {
			return nil, fmt.Errorf("duplicate %s %v", what, v)
		}
		seen[v] = true
		out = append(out, v)
	}
	return out, nil
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// parseInts is parseList for an integer axis, widened to the sweep's float64.
func parseInts(s, what string, above int) ([]float64, error) {
	ints, err := parseList(s, what, above, strconv.Atoi)
	if err != nil || ints == nil {
		return nil, err
	}
	out := make([]float64, len(ints))
	for i, n := range ints {
		out[i] = float64(n)
	}
	return out, nil
}

// table1 regenerates the paper's Table 1 with measured timings appended.
func table1(table, iters int, csv bool, stdout io.Writer) error {
	if table != 1 {
		return fmt.Errorf("-table %d: the paper has one table, pass -table 1", table)
	}
	if iters < 1 {
		return fmt.Errorf("-iters must be at least 1, got %d", iters)
	}
	rows, err := manet.Table1(iters, nil)
	if err != nil {
		return err
	}
	if csv {
		fmt.Fprintln(stdout, "scheme,sign_ops,verify_ops,pubkey_len,sign_ms,verify_ms")
		for _, r := range rows {
			fmt.Fprintf(stdout, "%s,%s,%s,%s,%.3f,%.3f\n",
				r.Scheme, r.Sign, r.Verify, r.PubKeyLen,
				float64(r.SignTime)/float64(time.Millisecond),
				float64(r.VerifyTime)/float64(time.Millisecond))
		}
		return nil
	}
	fmt.Fprintln(stdout, "Table 1 — Comparison of the CLS Schemes")
	fmt.Fprintln(stdout, "(s: scalar multiplication; p: pairing; e: exponentiation)")
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, manet.RenderTable1(rows))
	return nil
}
