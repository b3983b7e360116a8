package manet_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mccls/manet"
)

// TestModeStrings pins the labels the CLI and figure legends rely on.
func TestModeStrings(t *testing.T) {
	if manet.AODV.String() != "AODV" || manet.McCLS.String() != "McCLS" {
		t.Fatal("security mode labels changed")
	}
	if manet.Blackhole.String() != "black hole" || manet.Rushing.String() != "rushing" {
		t.Fatal("attack mode labels changed")
	}
}

// TestScenarioZeroValueDefaults checks that the zero-value scenario is the
// paper's setup and runs.
func TestScenarioZeroValueDefaults(t *testing.T) {
	res, err := manet.Scenario{Duration: 20 * time.Second, Seed: 3, MaxSpeed: 5}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DataSent == 0 {
		t.Fatal("default scenario generated no traffic")
	}
}

// TestParallelSweepSurface exercises the parallel-runner surface of the
// public API: worker count, per-trial progress with event observability,
// and per-point confidence intervals.
func TestParallelSweepSurface(t *testing.T) {
	var trials int
	fig, err := manet.RunFigure("fig1", manet.SweepConfig{
		Base:     manet.Scenario{Duration: 15 * time.Second},
		Axis:     []float64{5},
		Repeats:  2,
		Seed:     2,
		Workers:  4,
		Progress: func(u manet.TrialUpdate) { trials++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if trials != 4 {
		t.Fatalf("progress saw %d trials, want 2 curves × 2 repeats", trials)
	}
	for _, s := range fig.Series {
		if len(s.Y) != 1 || len(s.YErr) != 1 || s.Y[0] <= 0 || s.YErr[0] < 0 {
			t.Fatalf("series %q malformed: y=%v yerr=%v", s.Label, s.Y, s.YErr)
		}
	}
}

// TestResultPrintsEveryField: a Result is what the benchmark's digest
// hashes through %+v, so nothing it embeds may promote a String method
// that would hide the other fields.
func TestResultPrintsEveryField(t *testing.T) {
	if _, ok := any(manet.Result{}).(fmt.Stringer); ok {
		t.Fatal("manet.Result is a fmt.Stringer")
	}
	out := fmt.Sprintf("%+v", manet.Result{Events: 42, PeakQueue: 7})
	for _, frag := range []string{"Events:42", "PeakQueue:7", "DropTTLExpired:0"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("%%+v of a Result lacks %q: %s", frag, out)
		}
	}
}

// TestFigureGeneratorsWired makes sure every row of the exported figure
// table regenerates through the façade, under its own id and with every
// curve plotted at the one point asked for, on a minimal sweep of its axis.
func TestFigureGeneratorsWired(t *testing.T) {
	axes := map[string][]float64{"v": {5}, "churn": {1}, "n": {20}}
	for _, spec := range manet.Figures {
		axis, ok := axes[spec.Axis.Name]
		if !ok {
			t.Fatalf("%s sweeps axis family %q, which this test has no point for", spec.ID, spec.Axis.Name)
		}
		fig, err := manet.RunFigure(spec.ID, manet.SweepConfig{
			Base:    manet.Scenario{Duration: 15 * time.Second},
			Axis:    axis,
			Repeats: 1,
			Seed:    2,
		})
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		if fig.ID != spec.ID || len(fig.Series) == 0 {
			t.Fatalf("%s came back as %q with %d series", spec.ID, fig.ID, len(fig.Series))
		}
		for _, s := range fig.Series {
			if s.Label == "" || len(s.X) != 1 || s.X[0] != axis[0] || len(s.Y) != 1 {
				t.Fatalf("%s series %q: x=%v y=%v, want one point at %v", spec.ID, s.Label, s.X, s.Y, axis[0])
			}
		}
	}
	if _, err := manet.RunFigure("fig0", manet.SweepConfig{}); err == nil {
		t.Fatal("unknown figure id accepted")
	}
	// Count axes take whole numbers: 2.5 churn events is not 2.
	if _, err := manet.RunFigure("fig7", manet.SweepConfig{Axis: []float64{2.5}}); err == nil {
		t.Fatal("fractional churn count accepted")
	}
}
