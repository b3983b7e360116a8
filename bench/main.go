// Command bench is the repository's one benchmark: eight named workloads
// over the three planes (McCLS crypto, threshold KGC service, MANET
// simulator), driven from outside through the packages' public functions.
//
//	bench --workload auth_warm --seed 1 --seconds 10 --trace 0  # end-to-end metrics
//	bench --workload auth_warm --seed 1 --seconds 10 --trace 1  # per-layer metrics
//	bench --seed 1 --out runs.jsonl                              # every workload, both passes
//	bench -compare a.jsonl b.jsonl                               # two sets of runs against the bounds
//
// The last line of standard output of a single run is one JSON object with
// the keys correct, attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"time"

	"mccls/internal/bn254"
)

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runRecord is one line of an -out file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all of them, untraced then traced)")
		seed    = flag.Int64("seed", 1, "seed every input derives from")
		seconds = flag.Int("seconds", 10, "seconds one run measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
		out     = flag.String("out", "", "append each run's record to this file (JSON lines)")
		spans   = flag.String("spans", "", "with --workload and --trace 1, write the spans to this file (JSON lines)")
		compare = flag.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fatal(fmt.Errorf("usage: bench --workload <name> --seed <n> --seconds <s> --trace <0|1>"))
	}
	fmt.Printf("# go %s %s/%s GOMAXPROCS=%d NumCPU=%d\n", runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU())

	todo := workloads
	traces := []int{0, 1}
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		todo, traces = []workload{*w}, []int{*trace}
	}
	clean := true
	for i := range todo {
		for _, tr := range traces {
			res, err := run(&todo[i], *seed, time.Duration(*seconds)*time.Second, tr == 1, *spans)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", todo[i].name, err))
			}
			if *out != "" {
				if err := appendRecord(*out, runRecord{todo[i].name, *seed, *seconds, tr, res}); err != nil {
					fatal(err)
				}
			}
			line, err := json.Marshal(res)
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(line))
			clean = clean && res.Correct
		}
	}
	if !clean {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func appendRecord(path string, rec runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run performs one run of one workload and prints its report.
func run(w *workload, seed int64, d time.Duration, traced bool, spanFile string) (result, error) {
	fmt.Printf("# workload %s seed %d seconds %g trace %v clients %d (closed loop)\n", w.name, seed, d.Seconds(), traced, w.clients)
	if !traced {
		return runUntraced(w, seed, d)
	}
	layer, err := battery(seed)
	if err != nil {
		return result{}, fmt.Errorf("battery: %w", err)
	}
	return runTraced(w, seed, d, layer, spanFile)
}

// runUntraced measures the end-to-end metrics with tracing off, all three
// on the reference clock (refclock.go). The workload is set up w.setups
// times; setup_s is the median, and the last instance is the one measured.
func runUntraced(w *workload, seed int64, d time.Duration) (result, error) {
	meter := startSpeedometer()
	defer meter.stop()
	var inst instance
	from, to := make([]time.Time, w.setups), make([]time.Time, w.setups)
	for k := range from {
		if inst != nil {
			inst.close()
		}
		from[k] = time.Now()
		var err error
		if inst, err = w.setup(seed, nil); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		to[k] = time.Now()
	}
	defer inst.close()

	rec, failed, _ := runPass(w, inst, d, nil, 0)
	meter.stop()
	rec.onClock(meter)
	times, wallTimes := make([]float64, w.setups), make([]float64, w.setups)
	for k := range times {
		times[k], wallTimes[k] = meter.ref(from[k], to[k]).Seconds(), to[k].Sub(from[k]).Seconds()
	}
	ca, cf := inst.controls()
	lat, wall := rec.latenciesMS(refClock), rec.latenciesMS(wallClock)
	vals := map[string]float64{
		"op_p50_ms":  percentile(lat, 0.5),
		"work_per_s": rec.workPerSecond(w.clients),
		"setup_s":    median(times),
	}
	fmt.Printf("op_p50_ms %.6g ms n=%d (diagnostics: min %.6g, p90 %.6g, p99 %.6g; wall clock: p50 %.6g, p90 %.6g, p99 %.6g)\n",
		vals["op_p50_ms"], len(lat), lat[0], percentile(lat, 0.9), percentile(lat, 0.99), percentile(wall, 0.5), percentile(wall, 0.9), percentile(wall, 0.99))
	fmt.Printf("work_per_s %.6g 1/s n=%d ops in %d rounds\n", vals["work_per_s"], len(rec.samples), rec.rounds())
	fmt.Printf("setup_s %.6g s n=%d set-ups (wall clock: median %.6g s)\n", vals["setup_s"], len(times), median(wallTimes))
	fmt.Printf("# reference clock: %d bursts, median %.4g us against %.4g us on the reference machine\n", len(meter.burst), median(durationsUS(meter.burst)), float64(refBurst)/1e3)
	return finish(endToEnd, vals, len(rec.samples)+ca, failed+cf)
}

// runTraced measures the per-layer metrics: to the layer battery's values
// it adds the workload's own loop, run for d/2 with tracing off (the
// reference the exact per-op counts and tails come from) and for d/2 with a
// span around every call the benchmark makes into a layer.
func runTraced(w *workload, seed int64, d time.Duration, layer map[string]float64, spanFile string) (result, error) {
	vals := maps.Clone(layer)
	tr := newTracer()
	inst, err := w.setup(seed, tr)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()

	ops0 := bn254.ReadOpCounts()
	c0, b0 := mallocs()
	cpu0 := cpuSeconds()
	ref, failed, next := runPass(w, inst, d/2, tr, 0)
	cpu := cpuSeconds() - cpu0
	c1, b1 := mallocs()
	ops := bn254.ReadOpCounts().Sub(ops0)

	tr.on.Store(true)
	rec, failedTraced, _ := runPass(w, inst, d/2, tr, next)
	tr.on.Store(false)
	all := tr.take()
	ca, cf := inst.controls()

	n := float64(len(ref.samples))
	// The traced pass stays on the wall clock, as the battery's unit costs are.
	lat, latTraced := ref.latenciesMS(wallClock), rec.latenciesMS(wallClock)
	p50 := percentile(lat, 0.5)
	vals["trace_overhead_pct"] = 100 * (percentile(latTraced, 0.5)/p50 - 1)
	vals["op.p90_ms"] = percentile(lat, 0.9)
	vals["op.p99_ms"] = percentile(lat, 0.99)
	vals["op.cpu_ms"] = 1e3 * cpu / n
	vals["op.allocs"] = float64(c1-c0) / n
	vals["op.bytes"] = float64(b1-b0) / n
	vals["op.pairings"] = float64(ops.Pairings) / n
	vals["op.final_exps"] = float64(ops.FinalExps) / n
	vals["op.miller_squarings"] = float64(ops.MillerSquarings) / n
	vals["op.g1_mults"] = float64(ops.G1ScalarMults) / n
	vals["op.g2_mults"] = float64(ops.G2ScalarMults) / n
	counts := inst.layerCounts()
	for k, v := range counts {
		vals[k] = v
	}
	vals["op.budget_ms"] = w.budget(vals)
	vals["op.budget_residual_pct"] = 100 * (1 - vals["op.budget_ms"]/p50)

	fmt.Printf("# spans of the traced half (%d ops; reference half %d ops, p50 %.6g ms)\n", len(rec.samples), len(ref.samples), p50)
	fmt.Printf("# %-34s %8s %12s %12s\n", "span", "n", "p50_us", "self_p50_us")
	for _, s := range spanStats(all) {
		fmt.Printf("# %-34s %8d %12.2f %12.2f\n", s.name, s.n, s.p50us, s.selfP50us)
	}
	for _, def := range perLayer {
		fmt.Printf("%s %.6g %s\n", def.Name, vals[def.Name], def.Unit)
	}
	printBudget(w.name, p50, vals)
	if spanFile != "" {
		if err := writeSpans(spanFile, all); err != nil {
			return result{}, err
		}
	}
	return finish(perLayer, vals, len(ref.samples)+len(rec.samples)+ca, failed+failedTraced+cf)
}

// residualFlag is the share of an end-to-end median the layers may leave
// unexplained before the report says so.
const residualFlag = 15.0

// printBudget sets the sum of the layers' unit costs against the measured
// median, and states the residual instead of hiding it.
func printBudget(name string, p50 float64, vals map[string]float64) {
	row := func(label string, layers, total, residual float64, unit string) {
		flag := ""
		if math.Abs(residual) > residualFlag {
			flag = fmt.Sprintf("  <-- residual above %g%%: unexplained", residualFlag)
		}
		fmt.Printf("# budget %-28s layers %.6g %s of %.6g %s, residual %.1f%%%s\n", label, layers, unit, total, unit, residual, flag)
	}
	row(name+" op p50", vals["op.budget_ms"], p50, vals["op.budget_residual_pct"], "ms")
	row("Verify, cache hit", vals["core.verify_hit_us"]*(1-vals["core.verify_hit_residual_pct"]/100), vals["core.verify_hit_us"], vals["core.verify_hit_residual_pct"], "us")
	row("Verify, cache miss", vals["core.verify_miss_us"]*(1-vals["core.verify_miss_residual_pct"]/100), vals["core.verify_miss_us"], vals["core.verify_miss_residual_pct"], "us")
	cpu := 1e3 * vals["kgcd.cpu_ms_per_enroll"]
	row("cold enroll CPU vs G2 work", cpu*(1-vals["kgcd.cold_residual_pct"]/100), cpu, vals["kgcd.cold_residual_pct"], "us")
}

// finish builds the result line from the metric definitions, refusing a
// value that is not finite.
func finish(defs []metricDef, vals map[string]float64, attempted, failed int) (result, error) {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, def := range defs {
		v, ok := vals[def.Name]
		if !ok {
			v = 0 // a layer this workload never reaches keeps its count at zero
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", def.Name, v)
		}
		res.Metrics[def.Name] = value{Value: v, Unit: def.Unit}
	}
	return res, nil
}
