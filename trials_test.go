package mccls

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"mccls/manet"
)

// benchTrial is one trial of the benchmark's simulator workloads and the
// routing substrate that runs it.
type benchTrial struct {
	sc  manet.Scenario
	dsr bool
}

// simPaperTrials and simCityTrials are the trial lists bench/simw.go builds
// for sim_paper and sim_city, at the benchmark's sizes (two seeds per point,
// 300 simulated seconds; 500 nodes, 60 simulated seconds), in build order.
// They are copied rather than imported: bench/ is a module of its own.
func simPaperTrials() []benchTrial {
	const scenarioSeed = 1
	var trials []benchTrial
	for _, sec := range []manet.SecurityMode{manet.AODV, manet.McCLS} {
		for _, atk := range []manet.AttackMode{manet.NoAttack, manet.Blackhole, manet.Rushing} {
			for _, speed := range []float64{1, 10, 20} {
				for k := int64(0); k < 2; k++ {
					trials = append(trials, benchTrial{sc: manet.Scenario{
						MaxSpeed: speed, Security: sec, Attack: atk, Seed: scenarioSeed + k*7919, Duration: 300 * time.Second,
					}})
				}
			}
		}
	}
	for _, sec := range []manet.SecurityMode{manet.AODV, manet.McCLS} {
		for _, atk := range []manet.AttackMode{manet.NoAttack, manet.Blackhole, manet.Rushing} {
			trials = append(trials, benchTrial{dsr: true, sc: manet.Scenario{
				MaxSpeed: 10, Security: sec, Attack: atk, Seed: scenarioSeed, Duration: 300 * time.Second,
			}})
		}
	}
	return trials
}

func simCityTrials() []benchTrial {
	var trials []benchTrial
	for _, sec := range []manet.SecurityMode{manet.AODV, manet.McCLS} {
		trials = append(trials, benchTrial{sc: manet.Scenario{
			Nodes: 500, Width: 2000, Height: 2000, Mobility: manet.Manhattan,
			RangeJitter: 0.3, MaxSpeed: 10, Duration: 60 * time.Second,
			Security: sec, Seed: 1,
		}})
	}
	return trials
}

// TestBenchmarkTrialDigests pins every field of every Result of the
// benchmark's own simulator trials, hashed the way the benchmark's digest
// hashes them (one "%d|%+v" line per trial, here in build order rather than
// the benchmark's seed-shuffled order). A speed-up of the simulator must
// leave both digests alone. The model epoch-2 re-pin (ROADMAP item 2), which
// moves simulated behaviour on purpose, updates them together with
// TestFigureCSVGolden's; the failure message prints the new digest.
func TestBenchmarkTrialDigests(t *testing.T) {
	for _, tc := range []struct {
		name   string
		trials []benchTrial
		want   string
	}{
		{"sim_paper", simPaperTrials(), "a95cb9f3b517d15a410956f9fc12a2f71b441de10ba199162b2ca0adbc477d98"},
		{"sim_city", simCityTrials(), "69b3bfd55ce8b34004652e0d7323305d7cd763137da94109d9f896c323febee3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			h := sha256.New()
			for k, tr := range tc.trials {
				run := tr.sc.Run
				if tr.dsr {
					run = tr.sc.RunDSR
				}
				r, err := run()
				if err != nil {
					t.Fatalf("trial %d: %v", k, err)
				}
				fmt.Fprintf(h, "%d|%+v\n", k, r)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("%s: %d trials digest %s, want %s", tc.name, len(tc.trials), got, tc.want)
			}
		})
	}
}
