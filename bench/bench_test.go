package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"
)

// shrink runs the benchmark at about one per cent of its scale, so the
// smoke tests finish in seconds under -race. Nothing here looks at a clock:
// the tests assert what is emitted and what is checked, never how fast.
func shrink(t *testing.T) {
	t.Helper()
	saved, savedWorkloads := sizes, slices.Clone(workloads)
	t.Cleanup(func() { sizes, workloads = saved, savedWorkloads })
	for i := range workloads {
		workloads[i].setups = 2
	}
	sizes.warmPool, sizes.coldIDs, sizes.coldCacheCap = 32, 8, 2
	sizes.windowPool, sizes.warmIDs = forgedEvery, 16
	sizes.paperSeeds, sizes.paperSimulated = 1, 10*time.Second
	sizes.cityNodes, sizes.citySimulated = 40, 5*time.Second
	sizes.batteryPct = 1
}

// benchmarkJSON is the file's schema: exactly these keys.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return doc
}

// TestBenchmarkJSONMatchesBinary fails when a workload or metric named in
// BENCHMARK.json is not produced by the binary, or the reverse, or a name
// or unit leaves the allowed alphabet.
func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	doc := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q leaves the allowed alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the binary %q (or their why differs)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || regexp.MustCompile(`\n`).MatchString(w.Why) {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the binary %d", len(doc.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range doc.EndToEnd {
		name(m.Name)
		if got := (metricDef{m.Name, m.Unit, m.Better, m.Bound}); got != endToEnd[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the binary %+v", i, got, endToEnd[i])
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q bound %g", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the binary %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		name(m.Name)
		if got := (metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better}); got != perLayer[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the binary %+v", i, got, perLayer[i])
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %s: unit %q", m.Name, m.Unit)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}

// checkResult asserts that a run emitted every metric of defs once, finite,
// with its unit, and nothing else, and that nothing failed.
func checkResult(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(defs))
	}
	for _, def := range defs {
		v, ok := res.Metrics[def.Name]
		if !ok || v.Unit != def.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s: %+v (present %v)", def.Name, v, ok)
		}
	}
}

// TestSmokeAllWorkloads runs every workload's untraced and traced pass at
// the shrunken scale. The op itself carries the positive checks (valid
// signatures accepted, the planted offender and only it reported, cache
// flags as promised, the simulator's digest equal to the set-up pass's in
// both halves of the traced pass), controls() the negative ones.
func TestSmokeAllWorkloads(t *testing.T) {
	shrink(t)
	layer, err := battery(7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res, err := runUntraced(w, 7, 20*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd)
			for _, def := range endToEnd {
				if res.Metrics[def.Name].Value <= 0 {
					t.Errorf("%s = %g, must never be 0", def.Name, res.Metrics[def.Name].Value)
				}
			}
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			res, err = runTraced(w, 7, 40*time.Millisecond, layer, spans)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer)
			if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
				t.Errorf("no spans written: %v", err)
			}
			if got := res.Metrics["bn254.pairings_per_verify_warm"].Value; got != 1 {
				t.Errorf("pairings per warm verify = %g, want exactly 1", got)
			}
			if got := res.Metrics["bn254.pairings_per_verify_cold"].Value; got != 2 {
				t.Errorf("pairings per cold verify = %g, want exactly 2", got)
			}
		})
	}
}

// The negative controls must be able to fail: each test below breaks one
// thing the benchmark checks and expects the check to notice.

func TestTamperedSignatureIsRejected(t *testing.T) {
	shrink(t)
	inst, err := setupAuthWarm(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := inst.(*auth)
	if !w.tamperedRejected(w.vf, w.pool[0]) {
		t.Error("a tag over a message with one bit flipped was not rejected with ErrVerifyFailed")
	}
	if attempted, failed := w.controls(); attempted != controlCount || failed != 0 {
		t.Errorf("controls: attempted %d failed %d", attempted, failed)
	}
	// A pool entry that does not verify must fail its op.
	w.pool[0].msg[0] ^= 1
	if _, ok := w.op(0, 0, nil); ok {
		t.Error("op accepted a tag over the wrong message")
	}
}

func TestPlantedOffenderIsReported(t *testing.T) {
	shrink(t)
	inst, err := setupBatchFlood(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := inst.(*batchFlood)
	forged := int64(forgedEvery - 1)
	if s, ok := w.op(0, forged, nil); !ok || s.gated {
		t.Errorf("forged window: ok=%v gated=%v, want the planted index reported and the window ungated", ok, s.gated)
	}
	// Claiming another index was planted must fail the op.
	w.windows[forged].forged = (w.windows[forged].forged + 1) % windowSigs
	if _, ok := w.op(0, forged, nil); ok {
		t.Error("op accepted an offender list that does not name the planted index")
	}
}

func TestOracleMismatchIsCounted(t *testing.T) {
	shrink(t)
	inst, err := setupKGCCold(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	w := inst.(kgcCold)
	for i := int64(0); i < 4; i++ {
		if _, ok := w.op(int(i%2), i, nil); !ok {
			t.Fatalf("enroll %d failed", i)
		}
	}
	if attempted, failed := w.controls(); attempted != 4 || failed != 0 {
		t.Errorf("oracle bytes: attempted %d failed %d, want 4 equal", attempted, failed)
	}
	for id, key := range w.sampled {
		key[len(key)-1] ^= 1
		w.sampled[id] = key
		break
	}
	if _, failed := w.controls(); failed != 1 {
		t.Errorf("a corrupted partial key went unnoticed (failed = %d)", failed)
	}
	// A warm answer where a cold one is due is a wrong answer.
	if _, ok := w.enroll(0, 99, "fleet-3-0", false, nil); ok {
		t.Error("a cached reply was accepted on the cold path")
	}
}

func TestSimDigestMismatchFails(t *testing.T) {
	shrink(t)
	inst, err := setupSimPaper(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := inst.(*simWorkload)
	if _, ok := w.op(0, 0, nil); !ok {
		t.Fatal("a second pass did not reproduce the set-up pass's digest")
	}
	w.digest[0] ^= 1
	if _, ok := w.op(0, 1, nil); ok {
		t.Error("a digest mismatch went unnoticed")
	}
}

// The reference clock scales an interval cell by cell, and a stopped
// speedometer has a speed for every cell it covered.
func TestReferenceClock(t *testing.T) {
	m := &speedometer{epoch: time.Now(), cells: []float64{1, 0.5}}
	// Half of cell 0 at speed 1, then cell 1 and what lies beyond it at 0.5.
	got := m.ref(m.epoch.Add(calCell/2), m.epoch.Add(3*calCell))
	if want := calCell/2 + calCell; got != want {
		t.Errorf("ref = %v, want %v", got, want)
	}

	m = startSpeedometer()
	from := time.Now()
	for time.Since(from) < 2*calCell {
		calibrationBurst()
	}
	to := time.Now()
	m.stop()
	m.stop() // stopping twice is harmless
	if len(m.cells) < 2 {
		t.Fatalf("%d cells after %v", len(m.cells), to.Sub(m.epoch))
	}
	for k, scale := range m.cells {
		if !(scale > 0) || math.IsInf(scale, 0) {
			t.Errorf("cell %d: scale %g", k, scale)
		}
	}
	if m.ref(from, to) <= 0 {
		t.Error("a measured interval has no reference time")
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 []float64, failed int) string {
		path := filepath.Join(dir, name)
		for _, v := range p50 {
			rec := runRecord{Workload: "auth_warm", Seconds: 8, Result: result{
				Correct: failed == 0, Attempted: 100, Failed: failed,
				Metrics: map[string]value{"op_p50_ms": {v, "ms"}, "work_per_s": {1000 / v, "1/s"}, "setup_s": {0.1, "s"}},
			}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a", []float64{1.00, 1.01, 0.99, 1.00, 1.02}, 0)
	for _, tc := range []struct {
		name string
		path string
		code int
	}{
		{"same", write("same", []float64{1.01, 1.00, 1.02, 0.99, 1.00}, 0), 0},
		{"slower", write("slower", []float64{1.41, 1.40, 1.42, 1.39, 1.40}, 0), 1}, // beyond any bound
		{"noisy", write("noisy", []float64{1.0, 1.6, 0.8, 1.4, 1.2}, 0), 0},        // unresolved, not exceeds
		{"failing", write("failing", []float64{1.00, 1.01, 0.99, 1.00, 1.02}, 1), 1},
	} {
		if got := compareFiles(base, tc.path); got != tc.code {
			t.Errorf("%s: exit code %d, want %d", tc.name, got, tc.code)
		}
	}
}
