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
//	manetsim -all                       # all five + DSR + resilience + city
//	manetsim -fig 5 -csv                # machine-readable output
//	manetsim -fig 3 -duration 900s -repeats 5 -seed 42
//	manetsim -fig 7 -churn 0,2,4        # churn sweep, custom x-axis
//	manetsim -fig 9 -citynodes 100,500,2000  # city sweep, custom x-axis
//	manetsim -all -parallel 8 -progress # 8 workers, per-trial progress
//	manetsim -all -timeout 2m           # per-trial wall-clock deadline
//
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
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	duration := fs.Duration("duration", 300*time.Second, "simulated time per run")
	repeats := fs.Int("repeats", 3, "seeds averaged per sweep point")
	seed := fs.Int64("seed", 1, "base RNG seed")
	speeds := fs.String("speeds", "1,5,10,15,20", "comma-separated node speeds (m/s)")
	churn := fs.String("churn", "0,1,2,3,4", "comma-separated crash/restart event counts (figures 7-8)")
	nodes := fs.Int("nodes", 20, "number of nodes")
	cityNodes := fs.String("citynodes", "100,200,500", "comma-separated node counts swept by the city-scale figures 9-10")
	flows := fs.Int("flows", 10, "CBR flows")
	parallel := fs.Int("parallel", 0, "trial worker pool size (0 = GOMAXPROCS, 1 = serial)")
	timeout := fs.Duration("timeout", 0, "per-trial wall-clock deadline (0 = none)")
	progress := fs.Bool("progress", false, "print one line per finished trial to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if !*all && (*fig < 1 || *fig > 10) {
		fs.Usage()
		return fmt.Errorf("pass -fig 1..10 or -all")
	}
	if *nodes < 2 {
		return fmt.Errorf("-nodes %d: need at least 2 nodes", *nodes)
	}
	if *flows < 1 {
		return fmt.Errorf("-flows %d: need at least 1 flow", *flows)
	}
	speedVals, err := parseList(*speeds, "speed", 0, parseFloat)
	if err != nil {
		return err
	}
	churnVals, err := parseList(*churn, "churn count", -1, strconv.Atoi)
	if err != nil {
		return err
	}
	cityVals, err := parseList(*cityNodes, "node count", 1, strconv.Atoi)
	if err != nil {
		return err
	}

	// The table footer's trial count comes off the progress stream, which
	// also powers the optional -progress trace.
	trials := 0
	cfg := manet.SweepConfig{
		Base:         manet.Scenario{Duration: *duration, Nodes: *nodes, Flows: *flows},
		Speeds:       speedVals,
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

	// Figures 7–8 sweep churn instead of speed and carry their own config;
	// everything else (base scenario, repeats, pool, progress) is shared.
	rcfg := manet.ResilienceConfig{
		Base:         cfg.Base,
		Churn:        churnVals,
		Repeats:      *repeats,
		Seed:         *seed,
		Workers:      *parallel,
		TrialTimeout: *timeout,
		Progress:     cfg.Progress,
	}

	// Figures 9–10 sweep node count at city scale: Manhattan streets,
	// heterogeneous radio ranges. -nodes does not apply (the axis is the
	// node count); -duration, -flows and the pool options carry over.
	ccfg := manet.CityConfig{
		Base:         manet.Scenario{Duration: *duration, Flows: *flows},
		Nodes:        cityVals,
		Repeats:      *repeats,
		Seed:         *seed,
		Workers:      *parallel,
		TrialTimeout: *timeout,
		Progress:     cfg.Progress,
	}

	gens := map[int]func() (manet.Figure, error){
		1:  func() (manet.Figure, error) { return manet.Figure1(cfg) },
		2:  func() (manet.Figure, error) { return manet.Figure2(cfg) },
		3:  func() (manet.Figure, error) { return manet.Figure3(cfg) },
		4:  func() (manet.Figure, error) { return manet.Figure4(cfg) },
		5:  func() (manet.Figure, error) { return manet.Figure5(cfg) },
		6:  func() (manet.Figure, error) { return manet.FigureDSR(cfg) },                 // extension: DSR substrate
		7:  func() (manet.Figure, error) { return manet.FigureResilience(rcfg) },         // extension: PDR under churn
		8:  func() (manet.Figure, error) { return manet.FigureResilienceOverhead(rcfg) }, // extension: overhead under churn
		9:  func() (manet.Figure, error) { return manet.FigureCityPDR(ccfg) },            // extension: PDR at city scale
		10: func() (manet.Figure, error) { return manet.FigureCityOverhead(ccfg) },       // extension: overhead at city scale
	}
	which := []int{*fig}
	if *all {
		which = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	}

	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for _, id := range which {
		trials = 0
		start := time.Now()
		figure, err := gens[id]()
		if err != nil {
			return fmt.Errorf("figure %d: %w", id, err)
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

// parseList parses a comma-separated axis flag (-speeds, -churn, -citynodes)
// into distinct numbers strictly greater than `above`: a speed must be
// positive, a node count at least 2 to form a network, and a churn count may
// be zero (the fault-free baseline anchors that sweep). A duplicate would
// silently double-count a sweep point.
func parseList[T int | float64](s, what string, above T, parse func(string) (T, error)) ([]T, error) {
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
