package routing

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestStatsAddSumsEveryField gives every field of a Stats a distinct value
// and requires Add to double each one: a counter added to the record but not
// to Add fails here, not silently in a figure.
func TestStatsAddSumsEveryField(t *testing.T) {
	// fill sets field i to k·(i+1).
	fill := func(k int) (s Stats) {
		v := reflect.ValueOf(&s).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Uint64:
				f.SetUint(uint64(k * (i + 1)))
			case reflect.Int64:
				f.SetInt(int64(k * (i + 1)))
			default:
				t.Fatalf("field %s has kind %s, which this test cannot fill", v.Type().Field(i).Name, f.Kind())
			}
		}
		return s
	}
	sum := fill(1)
	sum.Add(fill(1))
	got, want := reflect.ValueOf(sum), reflect.ValueOf(fill(2))
	for i := 0; i < got.NumField(); i++ {
		if got.Field(i).Interface() != want.Field(i).Interface() {
			t.Errorf("Add does not sum %s: got %v, want %v", got.Type().Field(i).Name, got.Field(i), want.Field(i))
		}
	}
}

func TestRatios(t *testing.T) {
	var zero Stats
	if zero.PacketDeliveryRatio() != 0 || zero.RREQRatio() != 0 ||
		zero.EndToEndDelay() != 0 || zero.PacketDropRatio() != 0 {
		t.Fatal("zero traffic must yield zero ratios, not NaN")
	}
	s := Stats{
		DataSent: 10, DataForwarded: 4, DataDelivered: 7,
		RREQInitiated: 2, RREQForwarded: 3, DropByAttacker: 1,
		DelaySum: 700 * time.Millisecond, DelayCount: 7,
	}
	if got := s.PacketDeliveryRatio(); got != 0.7 {
		t.Fatalf("PDR = %v, want 0.7", got)
	}
	if got, want := s.RREQRatio(), float64(2+3+0)/float64(10+4); got != want {
		t.Fatalf("RREQRatio = %v, want %v", got, want)
	}
	if got := s.EndToEndDelay(); got != 100*time.Millisecond {
		t.Fatalf("delay = %v", got)
	}
	if got := s.PacketDropRatio(); got != 0.1 {
		t.Fatalf("drop ratio = %v", got)
	}
}

// TestAddWeightsRatiosByTraffic: pooling runs with Add weighs each by its
// traffic volume, which is what a figure's point plots.
func TestAddWeightsRatiosByTraffic(t *testing.T) {
	pooled := Stats{DataSent: 100, DataDelivered: 100}
	pooled.Add(Stats{DataSent: 300, DataDelivered: 0})
	if got := pooled.PacketDeliveryRatio(); got != 0.25 {
		t.Fatalf("traffic-weighted PDR = %v, want 0.25", got)
	}
}

func TestHeadlineIncludesMetrics(t *testing.T) {
	out := Stats{DataSent: 10, DataDelivered: 5}.Headline()
	for _, frag := range []string{"PDR=0.500", "sent=10", "delivered=5"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("headline missing %q: %s", frag, out)
		}
	}
}
