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
//	manetsim -all -timeout 2m -json BENCH_manet.json
package main

import (
	"encoding/json"
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

// figStats is one figure's entry in the -json dump: wall-clock for the
// whole figure plus the trial-level observability the runner collected.
// PeakQueue, GridCells and GridMaxOccupancy are maxima over the figure's
// trials; GridRebuilds/GridQueries/GridCandidates are sums, so their ratio
// is the effective per-lookup work the spatial index paid.
type figStats struct {
	Figure           string  `json:"figure"`
	WallMs           float64 `json:"wall_ms"`
	Trials           int     `json:"trials"`
	TrialWallMs      float64 `json:"trial_wall_ms_total"`
	Events           uint64  `json:"events"`
	EventsPerSec     float64 `json:"events_per_sec"`
	PeakQueue        int     `json:"peak_queue"`
	GridCells        int     `json:"grid_cells"`
	GridMaxOccupancy int     `json:"grid_max_occupancy"`
	GridRebuilds     uint64  `json:"grid_rebuilds"`
	GridQueries      uint64  `json:"grid_queries"`
	GridCandidates   uint64  `json:"grid_candidates"`
}

// mediumAblation records the spatial-index headline number: the same
// 500-node broadcast-wave workload timed through the naive O(n²) medium
// and through the grid index. Both passes process the identical event
// sequence (the index is pinned to the naive oracle), so the speedup is
// purely the neighbor-lookup win.
type mediumAblation struct {
	Nodes             int     `json:"nodes"`
	Waves             int     `json:"waves"`
	Events            uint64  `json:"events"`
	NaiveEventsPerSec float64 `json:"naive_events_per_sec"`
	GridEventsPerSec  float64 `json:"grid_events_per_sec"`
	Speedup           float64 `json:"speedup"`
}

// benchReport is the schema of BENCH_manet.json: enough context to compare
// sweep runs across machines and worker counts.
type benchReport struct {
	GoVersion      string          `json:"go_version"`
	GOARCH         string          `json:"goarch"`
	NumCPU         int             `json:"num_cpu"`
	Workers        int             `json:"workers"`
	Nodes          int             `json:"nodes"`
	CityNodes      []int           `json:"city_nodes,omitempty"`
	Timestamp      string          `json:"timestamp"`
	Figures        []figStats      `json:"figures"`
	MediumAblation *mediumAblation `json:"medium_ablation,omitempty"`
	TotalWallMs    float64         `json:"total_wall_ms"`
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
	jsonPath := fs.String("json", "", "write per-figure wall-clock and trial stats to this JSON file")
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

	// Per-figure trial stats are folded out of the progress stream, which
	// also powers the optional -progress trace.
	var st figStats
	cfg := manet.SweepConfig{
		Base:         manet.Scenario{Duration: *duration, Nodes: *nodes, Flows: *flows},
		Speeds:       speedVals,
		Repeats:      *repeats,
		Seed:         *seed,
		Workers:      *parallel,
		TrialTimeout: *timeout,
		Progress: func(u manet.TrialUpdate) {
			st.Trials++
			st.TrialWallMs += float64(u.Wall) / float64(time.Millisecond)
			st.Events += u.Events
			st.PeakQueue = max(st.PeakQueue, u.PeakQueue)
			st.GridCells = max(st.GridCells, u.GridCells)
			st.GridMaxOccupancy = max(st.GridMaxOccupancy, u.GridOccupancy)
			st.GridRebuilds += u.GridRebuilds
			st.GridQueries += u.GridQueries
			st.GridCandidates += u.GridCandidates
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
	report := benchReport{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Workers:   workers,
		Nodes:     *nodes,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	for _, id := range which {
		if id == 9 || id == 10 {
			report.CityNodes = cityVals
			break
		}
	}
	allStart := time.Now()
	for _, id := range which {
		st = figStats{}
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
				wall.Round(time.Millisecond), st.Trials, workers)
		}
		st.Figure = figure.ID
		st.WallMs = float64(wall) / float64(time.Millisecond)
		if secs := wall.Seconds(); secs > 0 {
			st.EventsPerSec = float64(st.Events) / secs
		}
		report.Figures = append(report.Figures, st)
	}
	report.TotalWallMs = float64(time.Since(allStart)) / float64(time.Millisecond)

	// The city-scale figures ship with the medium ablation: 500-node
	// broadcast waves, naive scan vs spatial index. The rendered line is
	// suppressed under -csv so serial/parallel CSV diffs stay byte-equal
	// (wall-clock numbers are machine-dependent).
	for _, id := range which {
		if id != 9 && id != 10 {
			continue
		}
		ab, err := manet.RunMediumAblation(500, 20)
		if err != nil {
			return err
		}
		report.MediumAblation = &mediumAblation{
			Nodes:             ab.Nodes,
			Waves:             ab.Waves,
			Events:            ab.Events,
			NaiveEventsPerSec: ab.NaiveEventsPerSec,
			GridEventsPerSec:  ab.GridEventsPerSec,
			Speedup:           ab.Speedup,
		}
		if !*csv {
			fmt.Fprintf(stdout, "medium ablation (%d-node broadcast waves): naive %.0f ev/s, grid %.0f ev/s — %.1fx\n\n",
				ab.Nodes, ab.NaiveEventsPerSec, ab.GridEventsPerSec, ab.Speedup)
		}
		break
	}

	if *jsonPath != "" {
		blob, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "manetsim: wrote %s\n", *jsonPath)
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
