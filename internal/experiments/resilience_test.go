package experiments

import (
	"testing"
	"time"
)

func TestOnlineEnrollmentScenario(t *testing.T) {
	sc := quick()
	sc.Security = McCLSCost
	sc.OnlineEnrollment = true
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	// All 19 clients (20 nodes minus the KGC host) enroll during the
	// 2 s traffic warm-up, so delivery matches the pre-enrolled baseline.
	if res.Enroll.Successes != 19 {
		t.Fatalf("Enroll.Successes = %d, want 19", res.Enroll.Successes)
	}
	if pdr := res.PacketDeliveryRatio(); pdr < 0.9 {
		t.Fatalf("PDR with online enrollment = %.3f, want ≥0.9", pdr)
	}
}

func TestChurnScenarioDeterministicAndPaired(t *testing.T) {
	sc := quick()
	sc.Security = McCLSCost
	sc.OnlineEnrollment = true
	sc.ChurnEvents = 3
	r1, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats != r2.Stats || r1.Enroll != r2.Enroll {
		t.Fatal("same seed + churn produced different results")
	}
	if r1.Crashes != 3 || r1.Restarts == 0 {
		t.Fatalf("churn not applied: crashes=%d restarts=%d",
			r1.Crashes, r1.Restarts)
	}

	// The churn stream is derived from Seed independently of the security
	// mode: plain AODV under the same seed must suffer the same crash
	// timeline (that is what makes the two sweep curves a paired
	// comparison).
	plain := quick()
	plain.ChurnEvents = 3
	rp, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rp.Crashes != r1.Crashes {
		t.Fatalf("churn schedule depends on security mode: %d vs %d crashes",
			rp.Crashes, r1.Crashes)
	}
}

// TestDSRChurnScenario: the crash lifecycle is the substrate's, so a DSR run
// suffers churn exactly like an AODV one (before internal/routing, RunDSR
// ignored ChurnEvents and reported Crashes: 0 with a clean PDR).
func TestDSRChurnScenario(t *testing.T) {
	sc := quick()
	sc.Security = McCLSCost
	sc.ChurnEvents = 3
	r1, err := sc.RunDSR()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sc.RunDSR()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats != r2.Stats {
		t.Fatal("same seed + churn produced different DSR results")
	}
	if r1.Crashes != 3 || r1.Restarts == 0 {
		t.Fatalf("churn not applied to DSR: crashes=%d restarts=%d",
			r1.Crashes, r1.Restarts)
	}
	if r1.DropNodeDown == 0 {
		t.Fatal("crashed DSR nodes discarded nothing")
	}

	// Plain DSR at the same seed suffers the same crash timeline.
	plain := quick()
	plain.ChurnEvents = 3
	rp, err := plain.RunDSR()
	if err != nil {
		t.Fatal(err)
	}
	if rp.Crashes != r1.Crashes || rp.Restarts != r1.Restarts {
		t.Fatalf("churn schedule depends on security mode: %d/%d vs %d/%d crashes/restarts",
			rp.Crashes, rp.Restarts, r1.Crashes, r1.Restarts)
	}
	clean, err := quick().RunDSR()
	if err != nil {
		t.Fatal(err)
	}
	if clean.Crashes != 0 || clean.DropNodeDown != 0 {
		t.Fatalf("fault-free DSR run reports faults: %+v", clean.Stats)
	}
}

// TestResilienceSweepWorkerInvariance is the issue's determinism criterion:
// the churn sweep must be bit-identical run serially and on a worker pool.
func TestResilienceSweepWorkerInvariance(t *testing.T) {
	workerInvariance(t, churnAxis, SweepConfig{
		Base:    Scenario{Duration: 30 * time.Second, MaxSpeed: 5},
		Axis:    []float64{0, 2},
		Repeats: 2,
		Seed:    5,
	}, 4)
}

func TestFigureResilienceShape(t *testing.T) {
	fig, err := RunFigure("fig7", SweepConfig{
		Base:    Scenario{Duration: 30 * time.Second, MaxSpeed: 5},
		Axis:    []float64{0, 3},
		Repeats: 2,
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig7" || len(fig.Series) != 2 {
		t.Fatalf("unexpected figure shape: %q with %d series", fig.ID, len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.X) != 2 || len(s.Y) != 2 || len(s.YErr) != 2 {
			t.Fatalf("series %q has ragged axes", s.Label)
		}
		if s.X[0] != 0 || s.X[1] != 3 {
			t.Fatalf("series %q x-axis = %v, want churn counts", s.Label, s.X)
		}
		if s.Y[0] <= 0 || s.Y[0] > 1 {
			t.Fatalf("series %q PDR at churn 0 = %v", s.Label, s.Y[0])
		}
	}
}
