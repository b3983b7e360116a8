package experiments

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"
)

// unaccounted is what a drained run cannot explain: data packets sent that
// were neither delivered nor counted under a drop reason.
func unaccounted(r Result) int64 {
	return int64(r.DataSent) - int64(r.DataDelivered+r.DropNoRoute+r.DropBufferOverflow+
		r.DropLinkBreak+r.DropTTLExpired+r.DropByAttacker+r.DropNodeDown)
}

// TestResultAccountsForEveryDataPacket generalises
// routing.TestDataPacketsAreConserved from a 3-node line to the paper's
// scenario: every Result carries all the drop reasons, so once the run has
// drained DataSent is exactly delivered plus dropped — on both substrates,
// with and without McCLS, under every attack the figures plot, across the
// speed axis, and under churn with and without online enrollment.
func TestResultAccountsForEveryDataPacket(t *testing.T) {
	type trial struct {
		name string
		sc   Scenario
		dsr  bool
	}
	var trials []trial
	for subName, dsr := range map[string]bool{"AODV": false, "DSR": true} {
		for _, sec := range []SecurityMode{Plain, McCLSCost} {
			for _, atk := range []AttackMode{NoAttack, Blackhole, Rushing} {
				for _, v := range []float64{1, 10, 20} {
					trials = append(trials, trial{
						fmt.Sprintf("%s/%v/%v/v=%v", subName, sec, atk, v),
						Scenario{Security: sec, Attack: atk, MaxSpeed: v, Seed: 1}, dsr,
					})
				}
			}
		}
	}
	for _, online := range []bool{false, true} {
		trials = append(trials, trial{
			fmt.Sprintf("AODV/churn/online=%v", online),
			Scenario{Security: McCLSCost, MaxSpeed: 5, Seed: 1, ChurnEvents: 3, OnlineEnrollment: online},
			false,
		})
	}
	for _, tr := range trials {
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			t.Parallel()
			res, err := tr.sc.run(context.Background(), tr.dsr)
			if err != nil {
				t.Fatal(err)
			}
			if res.DataSent == 0 {
				t.Fatal("no traffic")
			}
			if d := unaccounted(res); d != 0 {
				t.Fatalf("%d of %d data packets unaccounted for: %+v", d, res.DataSent, res.Stats)
			}
		})
	}
}

// TestBadSweepInputsRejected: values no run can honour are errors, not a
// makeslice panic (negative repeats) or an all-zero figure (negative
// duration).
func TestBadSweepInputsRejected(t *testing.T) {
	for name, cfg := range map[string]SweepConfig{
		"negative repeats":  {Repeats: -1, Axis: []float64{5}, Base: Scenario{Duration: 5 * time.Second}},
		"negative duration": {Repeats: 1, Axis: []float64{5}, Base: Scenario{Duration: -5 * time.Second}},
	} {
		if fig, err := RunFigure("fig1", cfg); err == nil {
			t.Errorf("%s accepted:\n%s", name, fig.CSV())
		}
	}
}

// TestDSRRunsWhatAODVRuns: the two substrates share one run body, so the
// enrollment protocol (which only interposes medium handlers) works over
// DSR, and the one overlay DSR lacks is an error rather than a no-attack
// run labelled gray hole.
func TestDSRRunsWhatAODVRuns(t *testing.T) {
	sc := quick()
	sc.Security = McCLSCost
	sc.OnlineEnrollment = true
	res, err := sc.RunDSR()
	if err != nil {
		t.Fatal(err)
	}
	if res.Enroll.Successes != 19 {
		t.Fatalf("Enroll.Successes = %d, want all 19 clients", res.Enroll.Successes)
	}
	if pdr := res.PacketDeliveryRatio(); pdr < 0.9 {
		t.Fatalf("DSR PDR with online enrollment = %.3f, want ≥0.9", pdr)
	}

	sc = quick()
	sc.Attack = Grayhole
	if res, err := sc.RunDSR(); err == nil {
		t.Fatalf("gray hole on DSR ran: %s", res.Headline())
	}
}

func TestCI95(t *testing.T) {
	if ci95(nil) != 0 || ci95([]float64{3}) != 0 {
		t.Fatal("fewer than two repeats must have a zero interval, not NaN")
	}
	// vals 1,2,3: sample stddev 1, so CI95 = t(df=2)·1/√3 = 4.303/√3.
	if got, want := ci95([]float64{1, 2, 3}), 4.303/math.Sqrt(3); math.Abs(got-want) > 1e-9 {
		t.Fatalf("ci95(1,2,3) = %v, want %v (Student t, df=2)", got, want)
	}
	if got := ci95([]float64{0.5, 0.5, 0.5}); got != 0 {
		t.Fatalf("identical repeats must have zero spread, got %v", got)
	}
	// The table's first and last rows, then the normal quantile past it.
	for n, tcrit := range map[int]float64{2: 12.706, 31: 2.042, 32: 1.96, 1000: 1.96} {
		vals := make([]float64, n)
		var sum float64
		for i := range vals {
			vals[i] = float64(i % 2)
			sum += vals[i]
		}
		var ss float64
		for _, v := range vals {
			ss += (v - sum/float64(n)) * (v - sum/float64(n))
		}
		want := tcrit * math.Sqrt(ss/float64(n-1)) / math.Sqrt(float64(n))
		if got := ci95(vals); math.Abs(got-want) > 1e-9 {
			t.Fatalf("ci95 of %d alternating values = %v, want %v (t = %v)", n, got, want, tcrit)
		}
	}
}
