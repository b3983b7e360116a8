package main

import (
	"io"
	"strings"
	"testing"
)

// TestChaosSmoke runs a compressed drill — one replica of three killed
// every second, a share refresh at half-time — and requires zero failed
// enrollments: every kill leaves the 2-of-3 quorum intact, so the combiner
// must absorb the churn invisibly.
func TestChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("the drill runs wall-clock seconds")
	}
	var out strings.Builder
	sum, err := run([]string{
		"-t", "2", "-n", "3", "-concurrency", "4", "-validate", "2",
		"-chaosfor", "4s", "-chaosperiod", "1s", "-chaosdown", "400ms",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 0 {
		t.Errorf("errors = %d, want 0 (faults never broke quorum)", sum.Errors)
	}
	if sum.Kills < 3 {
		t.Errorf("kills = %d, want ≥ 3 over 4s at 1s period", sum.Kills)
	}
	if sum.Epoch != 1 {
		t.Errorf("epoch %d, want 1 (one committed refresh)", sum.Epoch)
	}
	if sum.Requests == 0 || sum.P50 <= 0 || sum.P99 < sum.P50 {
		t.Errorf("requests %d p50 %v p99 %v, want closed-loop traffic", sum.Requests, sum.P50, sum.P99)
	}
	if sum.OracleChecked != 2 {
		t.Errorf("oracle checked = %d, want 2", sum.OracleChecked)
	}
	if !strings.Contains(out.String(), "avail 1.0000") || !strings.Contains(out.String(), "oracle 2") {
		t.Errorf("summary line missing:\n%s", out.String())
	}
}

// TestDrillFailsClosed: a drill too short to carry a request or commit a
// refresh is a failure, not a quiet pass.
func TestDrillFailsClosed(t *testing.T) {
	sum, err := run([]string{"-chaosfor", "0s", "-validate", "1"}, io.Discard)
	if err == nil {
		t.Fatalf("zero-length drill passed: %+v", sum)
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-concurrency", "0"},
		{"-validate", "0"},
		{"-n", "0"},
		{"-chaosperiod", "1s", "-chaosdown", "2s"},
		{"stray"},
		// Flags of the retired load-report mode.
		{"-json", "out.json"},
		{"-addr", "http://example.invalid"},
		{"-cold", "10"},
		{"-chaos"},
		// The retired identity pool: every request is a fresh identity.
		{"-chaosids", "20"},
	} {
		if _, err := run(args, io.Discard); err == nil {
			t.Errorf("args %v: want error", args)
		}
	}
}
