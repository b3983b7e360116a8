package metrics

import (
	"math"
	"strings"
	"testing"
	"time"

	"mccls/internal/routing"
)

func TestCollectSumsNodes(t *testing.T) {
	a := &routing.Agent{}
	a.Stats.DataSent = 10
	a.Stats.DataForwarded = 4
	a.Stats.RREQInitiated = 2
	b := &routing.Agent{}
	b.Stats.DataDelivered = 7
	b.Stats.RREQForwarded = 3
	b.Stats.DropByAttacker = 1
	b.Stats.DelaySum = 700 * time.Millisecond
	b.Stats.DelayCount = 7

	s := Collect([]*routing.Agent{a, b})
	if s.DataSent != 10 || s.DataDelivered != 7 || s.DataForwarded != 4 {
		t.Fatalf("bad sums: %+v", s)
	}
	if got := s.PacketDeliveryRatio(); got != 0.7 {
		t.Fatalf("PDR = %v, want 0.7", got)
	}
	// RREQ ratio = (2 + 3 + 0) / (10 + 4)
	if got := s.RREQRatio(); got < 0.357 || got > 0.358 {
		t.Fatalf("RREQRatio = %v", got)
	}
	if got := s.EndToEndDelay(); got != 100*time.Millisecond {
		t.Fatalf("delay = %v", got)
	}
	if got := s.PacketDropRatio(); got != 0.1 {
		t.Fatalf("drop ratio = %v", got)
	}
}

func TestZeroTrafficRatios(t *testing.T) {
	var s Summary
	if s.PacketDeliveryRatio() != 0 || s.RREQRatio() != 0 ||
		s.EndToEndDelay() != 0 || s.PacketDropRatio() != 0 {
		t.Fatal("zero traffic must yield zero ratios, not NaN")
	}
}

func TestAverageWeightsByTraffic(t *testing.T) {
	r1 := Summary{DataSent: 100, DataDelivered: 100}
	r2 := Summary{DataSent: 300, DataDelivered: 0}
	avg := Average([]Summary{r1, r2})
	if got := avg.PacketDeliveryRatio(); got != 0.25 {
		t.Fatalf("traffic-weighted PDR = %v, want 0.25", got)
	}
}

func TestAverageEmptyIsZeroNotNaN(t *testing.T) {
	avg := Average(nil)
	if avg != (Summary{}) {
		t.Fatalf("Average(nil) = %+v, want zero Summary", avg)
	}
	for name, v := range map[string]float64{
		"PDR":  avg.PacketDeliveryRatio(),
		"RREQ": avg.RREQRatio(),
		"drop": avg.PacketDropRatio(),
	} {
		if math.IsNaN(v) || v != 0 {
			t.Fatalf("%s of empty average = %v, want 0", name, v)
		}
	}
}

func TestNewStat(t *testing.T) {
	if st := NewStat(nil); st != (Stat{}) {
		t.Fatalf("empty NewStat = %+v, want zero", st)
	}
	if st := NewStat([]float64{3}); st.Mean != 3 || st.Stddev != 0 || st.CI95 != 0 {
		t.Fatalf("single-sample stat = %+v", st)
	}
	// vals 1,2,3: mean 2, sample stddev 1, CI95 = t(df=2)·1/√3 = 4.303/√3.
	st := NewStat([]float64{1, 2, 3})
	if st.Mean != 2 {
		t.Fatalf("mean = %v", st.Mean)
	}
	if math.Abs(st.Stddev-1) > 1e-12 {
		t.Fatalf("stddev = %v, want 1", st.Stddev)
	}
	want := 4.303 / math.Sqrt(3)
	if math.Abs(st.CI95-want) > 1e-9 {
		t.Fatalf("CI95 = %v, want %v (Student t, df=2)", st.CI95, want)
	}
}

func TestNewAggregate(t *testing.T) {
	empty := NewAggregate(nil)
	if empty.N != 0 || empty.PDR != (Stat{}) || empty.Pooled != (Summary{}) {
		t.Fatalf("empty aggregate = %+v, want all-zero", empty)
	}

	r1 := Summary{DataSent: 100, DataDelivered: 100, DelaySum: 100 * time.Millisecond, DelayCount: 10}
	r2 := Summary{DataSent: 100, DataDelivered: 50, DelaySum: 400 * time.Millisecond, DelayCount: 20}
	agg := NewAggregate([]Summary{r1, r2})
	if agg.N != 2 {
		t.Fatalf("N = %d", agg.N)
	}
	// Pooled keeps Average's traffic-weighted semantics...
	if got := agg.Pooled.PacketDeliveryRatio(); got != 0.75 {
		t.Fatalf("pooled PDR = %v, want 0.75", got)
	}
	// ...while the per-run stats treat each seed equally: PDRs 1.0 and 0.5.
	if agg.PDR.Mean != 0.75 {
		t.Fatalf("PDR mean = %v, want 0.75", agg.PDR.Mean)
	}
	wantSd := math.Sqrt(2) * 0.25 // sample stddev of {1.0, 0.5}
	if math.Abs(agg.PDR.Stddev-wantSd) > 1e-12 {
		t.Fatalf("PDR stddev = %v, want %v", agg.PDR.Stddev, wantSd)
	}
	if agg.PDR.CI95 <= 0 {
		t.Fatal("PDR CI95 missing")
	}
	// Per-run delays are 10 ms and 20 ms.
	if agg.DelayMs.Mean != 15 {
		t.Fatalf("delay mean = %v ms, want 15", agg.DelayMs.Mean)
	}
	// Identical repeats collapse the interval to zero.
	same := NewAggregate([]Summary{r1, r1, r1})
	if same.PDR.Stddev != 0 || same.PDR.CI95 != 0 {
		t.Fatalf("identical repeats must have zero spread: %+v", same.PDR)
	}
}

func TestTCritical95(t *testing.T) {
	cases := map[int]float64{1: 12.706, 2: 4.303, 30: 2.042, 31: 1.96, 1000: 1.96}
	for df, want := range cases {
		if got := tCritical95(df); got != want {
			t.Fatalf("t(df=%d) = %v, want %v", df, got, want)
		}
	}
	if tCritical95(0) != 0 {
		t.Fatal("df=0 must yield 0")
	}
}

func TestStringIncludesHeadlineMetrics(t *testing.T) {
	s := Summary{DataSent: 10, DataDelivered: 5}
	out := s.String()
	for _, frag := range []string{"PDR=0.500", "sent=10", "delivered=5"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("summary string missing %q: %s", frag, out)
		}
	}
}
