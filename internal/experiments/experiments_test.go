package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"mccls/internal/secrouting"
)

// quick returns a small, fast scenario for integration tests.
func quick() Scenario {
	return Scenario{
		Duration: 60 * time.Second,
		MaxSpeed: 5,
		Seed:     11,
	}
}

func TestScenarioBaselineHealthy(t *testing.T) {
	sc := quick()
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DataSent == 0 {
		t.Fatal("no traffic generated")
	}
	if pdr := res.PacketDeliveryRatio(); pdr < 0.9 {
		t.Fatalf("baseline PDR = %.3f, want healthy network (≥0.9)", pdr)
	}
	if res.EndToEndDelay() <= 0 {
		t.Fatal("no delay recorded")
	}
	if res.PacketDropRatio() != 0 {
		t.Fatal("attacker drops without an attack")
	}
}

func TestScenarioDeterministic(t *testing.T) {
	sc := quick()
	r1, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats != r2.Stats {
		t.Fatalf("same seed, different results:\n%+v\n%+v", r1.Stats, r2.Stats)
	}
	sc.Seed++
	r3, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats == r3.Stats {
		t.Fatal("different seeds produced identical results")
	}
}

func TestAttacksDegradePlainAODV(t *testing.T) {
	for _, atk := range []AttackMode{Blackhole, Rushing} {
		sc := quick()
		sc.Attack = atk
		res, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.PacketDropRatio() == 0 {
			t.Fatalf("%v attack absorbed nothing", atk)
		}
		base := quick()
		baseRes, err := base.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.PacketDeliveryRatio() >= baseRes.PacketDeliveryRatio() {
			t.Fatalf("%v attack did not reduce PDR (%.3f vs %.3f)",
				atk, res.PacketDeliveryRatio(), baseRes.PacketDeliveryRatio())
		}
	}
}

func TestMcCLSResistsAttacks(t *testing.T) {
	for _, atk := range []AttackMode{Blackhole, Rushing} {
		sc := quick()
		sc.Security = McCLSCost
		sc.Attack = atk
		res, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		// The paper's headline claim: "McCLS scheme is able to detect all
		// black hole attack and rushing attack and the packet drop ratio
		// is zero."
		if res.PacketDropRatio() != 0 {
			t.Fatalf("McCLS under %v: drop ratio %.3f, want 0", atk, res.PacketDropRatio())
		}
		if res.AuthRejected == 0 {
			t.Fatalf("McCLS under %v rejected nothing", atk)
		}
		if pdr := res.PacketDeliveryRatio(); pdr < 0.9 {
			t.Fatalf("McCLS under %v: PDR %.3f collapsed", atk, pdr)
		}
	}
}

// TestRealCryptoMatchesCostModel is the equivalence claim from DESIGN.md:
// with crypto randomness decoupled from the simulation stream, a run with
// real McCLS signatures makes exactly the same routing decisions as the
// cost model.
func TestRealCryptoMatchesCostModel(t *testing.T) {
	if testing.Short() {
		t.Skip("real pairing crypto per control packet")
	}
	base := Scenario{
		Nodes:    8,
		Width:    800,
		Height:   300,
		Duration: 20 * time.Second,
		MaxSpeed: 5,
		Flows:    3,
		Seed:     4,
		Attack:   Blackhole,
	}
	costSc := base
	costSc.Security = McCLSCost
	realSc := base
	realSc.Security = McCLSReal

	costRes, err := costSc.Run()
	if err != nil {
		t.Fatal(err)
	}
	realRes, err := realSc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if costRes.Stats != realRes.Stats {
		t.Fatalf("cost model and real crypto diverged:\ncost: %+v\nreal: %+v",
			costRes.Stats, realRes.Stats)
	}
	if realRes.PacketDropRatio() != 0 {
		t.Fatal("real-crypto McCLS leaked packets to the attacker")
	}
}

func TestFigure1Shape(t *testing.T) {
	cfg := SweepConfig{
		Base:    Scenario{Duration: 40 * time.Second},
		Axis:    []float64{1, 20},
		Repeats: 2,
		Seed:    5,
	}
	fig, err := RunFigure("fig1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("want 2 series, got %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Y) != 2 {
			t.Fatalf("series %s has %d points", s.Label, len(s.Y))
		}
		for _, y := range s.Y {
			if y <= 0 || y > 1 {
				t.Fatalf("PDR out of range: %v", y)
			}
		}
	}
	// AODV ≈ McCLS: within a few percent at each speed (paper: "without
	// causing any substantial degradation").
	a, m := fig.Series[0], fig.Series[1]
	for i := range a.Y {
		diff := a.Y[i] - m.Y[i]
		if diff < -0.05 || diff > 0.05 {
			t.Fatalf("AODV and McCLS PDR diverge at speed %v: %.3f vs %.3f",
				a.X[i], a.Y[i], m.Y[i])
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	cfg := SweepConfig{
		Base:    Scenario{Duration: 40 * time.Second},
		Axis:    []float64{5},
		Repeats: 2,
		Seed:    6,
	}
	fig, err := RunFigure("fig5", cfg)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]float64{}
	for _, s := range fig.Series {
		byLabel[s.Label] = s.Y[0]
	}
	if byLabel["AODV black hole"] == 0 || byLabel["AODV rushing"] == 0 {
		t.Fatalf("plain AODV shows no attacker drops: %+v", byLabel)
	}
	if byLabel["McCLS black hole"] != 0 || byLabel["McCLS rushing"] != 0 {
		t.Fatalf("McCLS drop ratio nonzero: %+v", byLabel)
	}
}

func TestFigureRendering(t *testing.T) {
	fig := Figure{
		ID: "figX", Title: "T", XLabel: "x", YLabel: "y", XColumn: "speed",
		Series: []Series{{Label: "A", X: []float64{1, 2}, Y: []float64{0.5, 0.25}, YErr: []float64{0.1, 0}}},
	}
	txt := fig.Render()
	if !strings.Contains(txt, "figX") || !strings.Contains(txt, "0.500 ±0.100") {
		t.Fatalf("render missing content:\n%s", txt)
	}
	csv := fig.CSV()
	if !strings.HasPrefix(csv, "speed,A,A ci95\n") || !strings.Contains(csv, "1,0.5000,0.1000") {
		t.Fatalf("csv malformed:\n%s", csv)
	}
}

func TestTable1RowsAndOrdering(t *testing.T) {
	rows, err := Table1(1, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rows))
	}
	want := map[string][2]string{
		"AP":    {"1p+3s", "4p+1e"},
		"ZWXF":  {"4s", "4p+3s"},
		"YHG":   {"2s", "2p+3s"},
		"McCLS": {"2s", "1p+1s"},
	}
	var mcclsVerify, apVerify int // pairings per verify, as the rows print them
	for _, r := range rows {
		w, ok := want[r.Scheme]
		if !ok {
			t.Fatalf("unexpected scheme %q", r.Scheme)
		}
		if r.Sign != w[0] || r.Verify != w[1] {
			t.Fatalf("%s ops = (%s, %s), want (%s, %s)", r.Scheme, r.Sign, r.Verify, w[0], w[1])
		}
		if r.SignTime <= 0 || r.VerifyTime <= 0 {
			t.Fatalf("%s has non-positive timings", r.Scheme)
		}
		var pairings int
		if _, err := fmt.Sscanf(r.Verify, "%dp", &pairings); err != nil {
			t.Fatalf("%s verify ops %q name no pairing count: %v", r.Scheme, r.Verify, err)
		}
		switch r.Scheme {
		case "McCLS":
			mcclsVerify = pairings
		case "AP":
			apVerify = pairings
		}
	}
	// The paper's claim: McCLS verification beats the 4-pairing AP. It is
	// checked on the operation counts, not on one timing of each, which a
	// loaded host can invert.
	if mcclsVerify >= apVerify {
		t.Fatalf("McCLS verify pays %d pairings, not fewer than AP's %d", mcclsVerify, apVerify)
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "McCLS") || !strings.Contains(out, "1p+1s") {
		t.Fatalf("table rendering broken:\n%s", out)
	}
}

// workerInvariance runs the ax family's sweeps serially and on each of the
// given pool sizes, requiring bit-identical results (every counter of every
// repeat, not one metric's projection). Worker invariance is a property
// of the trials, and the table rows of one (family, substrate) differ only
// in which curves they keep and which metric they plot, so the row with the
// most curves stands for the rest.
func workerInvariance(t *testing.T, ax *Axis, cfg SweepConfig, workers ...int) {
	t.Helper()
	widest := map[bool]FigureSpec{} // by substrate: AODV, DSR
	for _, spec := range Figures {
		if spec.Axis == ax && len(spec.Curves) > len(widest[spec.DSR].Curves) {
			widest[spec.DSR] = spec
		}
	}
	if len(widest) == 0 {
		t.Fatalf("no figure in the table sweeps the %q axis", ax.Name)
	}
	for _, spec := range widest {
		cfg.Workers = 1
		_, serial, err := cfg.results(spec.Axis, spec.Curves, spec.DSR)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workers {
			cfg.Workers = w
			_, par, err := cfg.results(spec.Axis, spec.Curves, spec.DSR)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("%s sweep diverges between 1 and %d workers:\nserial: %+v\nparallel: %+v",
					spec.ID, w, serial, par)
			}
		}
	}
}

// TestParallelMatchesSerial is the refactor's hard invariant: a sweep run
// on one worker is bit-identical to the same sweep run on many, at any
// worker count — every trial owns its seed-derived RNGs and all cross-trial
// state is read-only. Both substrates of the speed axis are pinned (DSR
// rides the same engine).
func TestParallelMatchesSerial(t *testing.T) {
	workerInvariance(t, speedAxis, SweepConfig{
		Base:    Scenario{Duration: 30 * time.Second},
		Axis:    []float64{1, 15},
		Repeats: 2,
		Seed:    9,
	}, 2, 8)
}

// TestSeriesCarryConfidenceIntervals: repeats > 1 must surface error bars.
func TestSeriesCarryConfidenceIntervals(t *testing.T) {
	fig, err := RunFigure("fig1", SweepConfig{
		Base: Scenario{Duration: 30 * time.Second}, Axis: []float64{5, 15},
		Repeats: 3, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		if len(s.YErr) != len(s.Y) {
			t.Fatalf("series %s: %d error bars for %d points", s.Label, len(s.YErr), len(s.Y))
		}
		for i, e := range s.YErr {
			if e < 0 {
				t.Fatalf("series %s point %d: negative CI %v", s.Label, i, e)
			}
		}
	}
	csv := fig.CSV()
	if !strings.Contains(csv, "AODV ci95") || !strings.Contains(csv, "McCLS ci95") {
		t.Fatalf("CSV missing CI columns:\n%s", csv)
	}
	if !strings.Contains(fig.Render(), "±") {
		t.Fatalf("render missing error bars:\n%s", fig.Render())
	}
}

// TestCryptoLatencyOverridesReachAuthenticator: Scenario.SignLatency and
// VerifyLatency replace the secrouting defaults on both McCLS
// authenticators; zero keeps the defaults.
func TestCryptoLatencyOverridesReachAuthenticator(t *testing.T) {
	payload := []byte("rreq")
	for _, sec := range []SecurityMode{McCLSCost, McCLSReal} {
		for _, tc := range []struct{ sign, verify, wantSign, wantVerify time.Duration }{
			{0, 0, secrouting.DefaultSignLatency, secrouting.DefaultVerifyLatency},
			{7 * time.Millisecond, 9 * time.Millisecond, 7 * time.Millisecond, 9 * time.Millisecond},
		} {
			sc := Scenario{Nodes: 2, Security: sec, SignLatency: tc.sign, VerifyLatency: tc.verify}.withDefaults()
			auth, _, err := sc.buildAuth(rand.New(rand.NewSource(1)), nil)
			if err != nil {
				t.Fatal(err)
			}
			tag, d, err := auth.Sign(0, payload)
			if err != nil || d != tc.wantSign {
				t.Fatalf("%v: sign latency %v (err %v), want %v", sec, d, err, tc.wantSign)
			}
			if ok, d := auth.Verify(0, payload, tag); !ok || d != tc.wantVerify {
				t.Fatalf("%v: verify ok=%v latency %v, want %v", sec, ok, d, tc.wantVerify)
			}
		}
	}
}

// TestRunContextCancellation: a dead context aborts a scenario promptly.
func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := quick().run(ctx, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSweepTrialTimeout: the per-trial deadline fails the sweep instead of
// hanging it.
func TestSweepTrialTimeout(t *testing.T) {
	cfg := SweepConfig{
		Base:         Scenario{Duration: 300 * time.Second},
		Axis:         []float64{5},
		Repeats:      1,
		Seed:         3,
		TrialTimeout: time.Nanosecond,
	}
	_, err := RunFigure("fig1", cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

// TestSweepProgressObservability: one update per trial, with event counts.
func TestSweepProgressObservability(t *testing.T) {
	var updates []TrialUpdate
	cfg := SweepConfig{
		Base:     Scenario{Duration: 20 * time.Second},
		Axis:     []float64{1, 5},
		Repeats:  2,
		Seed:     4,
		Progress: func(u TrialUpdate) { updates = append(updates, u) },
	}
	if _, err := RunFigure("fig5", cfg); err != nil {
		t.Fatal(err)
	}
	want := 4 * 2 * 2 // curves × speeds × repeats
	if len(updates) != want {
		t.Fatalf("got %d progress updates, want %d", len(updates), want)
	}
	for _, u := range updates {
		if u.Err != nil {
			t.Fatalf("trial %q failed: %v", u.Label, u.Err)
		}
		if u.Events == 0 || u.EventsPerSec <= 0 {
			t.Fatalf("trial %q missing event observability: %+v", u.Label, u)
		}
		if u.Total != want || u.Done < 1 || u.Done > want {
			t.Fatalf("malformed update: %+v", u)
		}
	}
}

// TestInsiderGrayholeNotStoppedByMcCLS documents the protection boundary:
// a gray hole holding a valid KGC key signs correct control packets, so
// routing authentication cannot exclude it and some traffic is still lost.
func TestInsiderGrayholeNotStoppedByMcCLS(t *testing.T) {
	sc := quick()
	sc.Security = McCLSCost
	sc.Attack = Grayhole
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketDropRatio() == 0 {
		t.Fatal("insider gray hole dropped nothing; topology too favourable, adjust seed")
	}
	// But it drops selectively, not everything it could.
	if res.PacketDropRatio() > 0.6 {
		t.Fatalf("gray hole dropped %.2f, not selective", res.PacketDropRatio())
	}
}

// TestDSRScenario checks the DSR runner end-to-end: healthy baseline,
// attack degradation, and McCLS protection — the generality claim.
func TestDSRScenario(t *testing.T) {
	base := quick()
	res, err := base.RunDSR()
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketDeliveryRatio() < 0.85 {
		t.Fatalf("DSR baseline PDR %.3f unhealthy", res.PacketDeliveryRatio())
	}
	for _, atk := range []AttackMode{Blackhole, Rushing} {
		plain := quick()
		plain.Attack = atk
		pRes, err := plain.RunDSR()
		if err != nil {
			t.Fatal(err)
		}
		if pRes.PacketDropRatio() == 0 {
			t.Fatalf("DSR %v absorbed nothing", atk)
		}
		sec := quick()
		sec.Attack = atk
		sec.Security = McCLSCost
		sRes, err := sec.RunDSR()
		if err != nil {
			t.Fatal(err)
		}
		if sRes.PacketDropRatio() != 0 {
			t.Fatalf("McCLS-DSR under %v: drop ratio %.3f, want 0", atk, sRes.PacketDropRatio())
		}
	}
}

// TestDSRDeterministic pins reproducibility for the DSR runner too.
func TestDSRDeterministic(t *testing.T) {
	sc := quick()
	sc.Attack = Rushing
	r1, err := sc.RunDSR()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sc.RunDSR()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats != r2.Stats {
		t.Fatal("DSR run not deterministic")
	}
}

// TestFigureDSRShape checks the extension figure mirrors Figure 5's shape
// on the DSR substrate.
func TestFigureDSRShape(t *testing.T) {
	cfg := SweepConfig{
		Base:    Scenario{Duration: 40 * time.Second},
		Axis:    []float64{5},
		Repeats: 2,
		Seed:    7,
	}
	fig, err := RunFigure("figDSR", cfg)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]float64{}
	for _, s := range fig.Series {
		byLabel[s.Label] = s.Y[0]
	}
	if byLabel["DSR black hole"] == 0 || byLabel["DSR rushing"] == 0 {
		t.Fatalf("plain DSR shows no attacker drops: %+v", byLabel)
	}
	if byLabel["McCLS-DSR black hole"] != 0 || byLabel["McCLS-DSR rushing"] != 0 {
		t.Fatalf("McCLS-DSR drop ratio nonzero: %+v", byLabel)
	}
}
