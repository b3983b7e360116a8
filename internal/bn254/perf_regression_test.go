package bn254

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"mccls/internal/bn254/fp"
)

// benchBaselines is the slice of BENCH_bn254.json this test consumes.
type benchBaselines struct {
	FpKernel struct {
		Path string `json:"path"`
		Ops  []struct {
			Op     string  `json:"op"`
			FastNs float64 `json:"fast_ns_per_op"`
		} `json:"ops"`
	} `json:"fp_kernel"`
	Results []struct {
		Name    string `json:"name"`
		NsPerOp int64  `json:"ns_per_op"`
	} `json:"results"`
}

// TestPerfRegressionVsCheckedInBench is the benchstat-style CI smoke:
// it re-measures BenchmarkFpMul, BenchmarkPairing and
// BenchmarkG2IsInSubgroup (best of three, which is what benchstat's
// min-selection approximates) and fails if any regressed more than 10%
// against the checked-in
// BENCH_bn254.json. Wall-clock comparisons across machines are
// meaningless, so the test only arms itself when MCCLS_PERF_REGRESSION=1
// — CI sets it on the leg whose runner class matches the baselines —
// and skips when the build's kernel path differs from the one the
// baselines were recorded with (a purego run against adx numbers would
// always "regress").
func TestPerfRegressionVsCheckedInBench(t *testing.T) {
	if os.Getenv("MCCLS_PERF_REGRESSION") != "1" {
		t.Skip("set MCCLS_PERF_REGRESSION=1 to arm the perf regression smoke")
	}
	blob, err := os.ReadFile("../../BENCH_bn254.json")
	if err != nil {
		t.Fatalf("reading checked-in baselines: %v", err)
	}
	var base benchBaselines
	if err := json.Unmarshal(blob, &base); err != nil {
		t.Fatalf("parsing BENCH_bn254.json: %v", err)
	}
	if base.FpKernel.Path != "" && base.FpKernel.Path != fp.KernelPath() {
		t.Skipf("baselines recorded on kernel path %q, this build runs %q", base.FpKernel.Path, fp.KernelPath())
	}

	var fpMulBase float64
	for _, op := range base.FpKernel.Ops {
		if op.Op == "mul" {
			fpMulBase = op.FastNs
		}
	}
	var pairingBase, subgroupBase float64
	for _, r := range base.Results {
		switch r.Name {
		case "pairing":
			pairingBase = float64(r.NsPerOp)
		case "g2_subgroup_check":
			subgroupBase = float64(r.NsPerOp)
		}
	}
	if fpMulBase == 0 || pairingBase == 0 || subgroupBase == 0 {
		t.Fatal("BENCH_bn254.json lacks fp_kernel mul, pairing or g2_subgroup_check baselines")
	}

	const slack = 1.10
	check := func(name string, baseNs, graceNs float64, bench func(b *testing.B)) {
		best := 1e18
		for i := 0; i < 3; i++ {
			r := testing.Benchmark(bench)
			if ns := float64(r.T.Nanoseconds()) / float64(r.N); ns < best {
				best = ns
			}
		}
		limit := baseNs*slack + graceNs
		status := "ok"
		if best > limit {
			status = "REGRESSION"
			t.Errorf("%s: %.1f ns/op vs baseline %.1f ns/op (limit %.1f, >10%% regression)", name, best, baseNs, limit)
		}
		fmt.Printf("perf-smoke %-10s %10.1f ns/op  baseline %10.1f  limit %10.1f  %s\n", name, best, baseNs, limit, status)
	}
	// BenchmarkFpMul's loop body is a Mul plus a feeding Add; compare it
	// against the sum of the baselines' mul+add fast-path costs is
	// over-precise — the 10% slack dwarfs the Add term, so the mul
	// baseline alone with the Add folded into slack would flap. Instead
	// rebuild the baseline from the same composite the benchmark times.
	var addBase float64
	for _, op := range base.FpKernel.Ops {
		if op.Op == "add" {
			addBase = op.FastNs
		}
	}
	// The fp baseline is mul+add from the fp_kernel report, which times
	// bare calls; BenchmarkFpMul adds a b.N loop and counter on top.
	// Grant a flat 4ns for that harness overhead — a real kernel
	// regression is tens of ns, so the grace cannot mask one.
	check("fp_mul", fpMulBase+addBase, 4, BenchmarkFpMul)
	check("pairing", pairingBase, 0, BenchmarkPairing)
	check("g2_subgroup", subgroupBase, 0, BenchmarkG2IsInSubgroup)
}
