package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"

	"mccls/manet"
)

// The simulator workloads: what a researcher regenerating the paper's
// figures waits for. One op is one serial pass over a trial list, so
// per-trial time is clean and every pass does the same simulated work; the
// list's digest must repeat exactly from pass to pass.
//
// The scenarios are the figures' own, scenario seeds included: how many
// events a scenario simulates depends on its seed (a pass's wall time
// ranged 0.87–1.49 s over five scenario seeds, its events per second
// 3.5–4.1 M), so deriving them from --seed would measure the draw, not
// the simulator. --seed shuffles the order the trials run in.

// scenarioSeed is the figures' base seed; repeat k of a point uses
// scenarioSeed + k·7919, as experiments.SweepConfig and CityConfig do.
const scenarioSeed = 1

// trial is one scenario and which routing substrate runs it.
type trial struct {
	sc  manet.Scenario
	dsr bool
}

type simWorkload struct {
	trials []trial
	digest [sha256.Size]byte // reference from set-up; every pass must match
	// checkBlackhole: pooled black-hole PDR must be higher for McCLS than
	// for AODV (the paper's figure 4 claim), only meaningful on sim_paper.
	checkBlackhole bool
	last           []manet.Result
}

// paperSpeeds is the speed axis of figures 1–5.
var paperSpeeds = []float64{1, 10, 20}

func setupSimPaper(seed int64, _ *tracer) (instance, error) {
	w := &simWorkload{checkBlackhole: true}
	for _, sec := range []manet.SecurityMode{manet.AODV, manet.McCLS} {
		for _, atk := range []manet.AttackMode{manet.NoAttack, manet.Blackhole, manet.Rushing} {
			for _, speed := range paperSpeeds {
				for k := int64(0); k < int64(sizes.paperSeeds); k++ {
					w.trials = append(w.trials, trial{sc: manet.Scenario{
						MaxSpeed: speed, Security: sec, Attack: atk, Seed: scenarioSeed + k*7919, Duration: sizes.paperSimulated,
					}})
				}
			}
		}
	}
	// DSR trials guard the planned AODV/DSR substrate merge.
	for _, sec := range []manet.SecurityMode{manet.AODV, manet.McCLS} {
		for _, atk := range []manet.AttackMode{manet.NoAttack, manet.Blackhole, manet.Rushing} {
			w.trials = append(w.trials, trial{dsr: true, sc: manet.Scenario{
				MaxSpeed: 10, Security: sec, Attack: atk, Seed: scenarioSeed, Duration: sizes.paperSimulated,
			}})
		}
	}
	return w, w.reference(seed)
}

func setupSimCity(seed int64, _ *tracer) (instance, error) {
	w := &simWorkload{}
	for _, sec := range []manet.SecurityMode{manet.AODV, manet.McCLS} {
		w.trials = append(w.trials, trial{sc: manet.Scenario{
			Nodes: sizes.cityNodes, Width: 2000, Height: 2000, Mobility: manet.Manhattan,
			RangeJitter: 0.3, MaxSpeed: 10, Duration: sizes.citySimulated,
			Security: sec, Seed: scenarioSeed,
		}})
	}
	return w, w.reference(seed)
}

// reference puts the list in the seed's order and runs it once: the
// warm-up pass, and the digest every measured pass is compared with.
func (w *simWorkload) reference(seed int64) error {
	rand.New(rand.NewSource(seed)).Shuffle(len(w.trials), func(i, j int) {
		w.trials[i], w.trials[j] = w.trials[j], w.trials[i]
	})
	results, _, err := w.pass(scope{})
	if err != nil {
		return err
	}
	w.digest = digestOf(results)
	return nil
}

func (w *simWorkload) pass(sc scope) ([]manet.Result, uint64, error) {
	results := make([]manet.Result, len(w.trials))
	var events uint64
	for k, t := range w.trials {
		var err error
		if t.dsr {
			s := sc.begin("manet.Scenario.RunDSR")
			results[k], err = t.sc.RunDSR()
			sc.tr.end(s)
		} else {
			s := sc.begin("manet.Scenario.Run")
			results[k], err = t.sc.Run()
			sc.tr.end(s)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("trial %d: %w", k, err)
		}
		events += results[k].Events
	}
	return results, events, nil
}

// digestOf hashes every field of every trial's Result, in list order.
func digestOf(results []manet.Result) [sha256.Size]byte {
	h := sha256.New()
	for k, r := range results {
		fmt.Fprintf(h, "%d|%+v\n", k, r)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

func (w *simWorkload) op(_ int, i int64, tr *tracer) (sample, bool) {
	sc := tr.root(i)
	t := time.Now()
	results, events, err := w.pass(sc)
	d := time.Since(t)
	tr.end(sc.parent)
	if err != nil {
		return sample{dur: d, gated: true}, false
	}
	w.last = results
	return sample{dur: d, work: float64(events), gated: true}, digestOf(results) == w.digest
}

func (w *simWorkload) controls() (attempted, failed int) {
	if !w.checkBlackhole || w.last == nil {
		return 0, 0
	}
	var sent, delivered [2]uint64
	for k, t := range w.trials {
		if t.sc.Attack != manet.Blackhole {
			continue
		}
		side := 0
		if t.sc.Security == manet.McCLS {
			side = 1
		}
		sent[side] += w.last[k].DataSent
		delivered[side] += w.last[k].DataDelivered
	}
	pdr := func(side int) float64 { return float64(delivered[side]) / float64(sent[side]) }
	if !(pdr(1) > pdr(0)) {
		return 1, 1
	}
	return 1, 0
}

// layerCounts reports the exact counts of one pass (they repeat exactly
// from pass to pass, which the digest check enforces).
func (w *simWorkload) layerCounts() map[string]float64 {
	if w.last == nil {
		return nil
	}
	var events, allocs, queries, candidates, rebuilds, deliveries, rreq, data, rejected uint64
	peak := 0
	for _, r := range w.last {
		events += r.Events
		allocs += r.EventAllocs
		peak = max(peak, r.PeakQueue)
		queries += r.Grid.Queries
		candidates += r.Grid.Candidates
		rebuilds += r.Grid.Rebuilds
		deliveries += r.Radio.Deliveries
		rreq += r.RREQInitiated + r.RREQForwarded + r.RREQRetried
		data += r.DataSent + r.DataForwarded
		rejected += r.AuthRejected
	}
	n := float64(len(w.last))
	return map[string]float64{
		"sim.events_per_trial":            float64(events) / n,
		"sim.peak_queue":                  float64(peak),
		"sim.event_allocs":                float64(allocs) / n,
		"radio.grid_queries":              float64(queries) / n,
		"radio.grid_candidates_per_query": float64(candidates) / float64(max(queries, 1)),
		"radio.grid_rebuilds":             float64(rebuilds) / n,
		"radio.deliveries_per_event":      float64(deliveries) / float64(max(events, 1)),
		"routing.rreq_per_data":           float64(rreq) / float64(max(data, 1)),
		"secrouting.auth_rejected":        float64(rejected) / n,
		"sim.trials":                      n, // for the budget; not a reported metric
	}
}

func (w *simWorkload) close() {}
