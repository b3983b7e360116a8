package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// instance is one set-up workload: everything derived from the seed is
// built, caches are in the state the workload's name promises, and op can
// be called in a closed loop.
type instance interface {
	// op runs the client's operation number i and reports what the caller
	// waited for; ok is false when the program's answer was wrong. Calls
	// into a layer are wrapped in spans under tr (which may be off).
	op(client int, i int64, tr *tracer) (s sample, ok bool)
	// controls runs the negative controls and sampled oracle comparisons
	// that do not belong in the timed loop.
	controls() (attempted, failed int)
	// layerCounts reports the exact counts this workload's layers kept
	// over every op run so far (per_layer metrics with unit count/ratio).
	layerCounts() map[string]float64
	close()
}

// workload names one set of inputs. clients is the closed loop's width:
// every caller modelled here waits for its reply before sending again.
type workload struct {
	name    string
	why     string
	clients int
	// setups is how many times an untraced run sets the workload up;
	// setup_s is the median. Set-ups that take milliseconds are repeated
	// more often than those that take seconds.
	setups int
	setup  func(seed int64, tr *tracer) (instance, error)
	// budget predicts the op's median latency (ms) from the per-layer
	// metrics of the traced pass: the battery's unit costs and the
	// workload's own exact counts. The report sets it against the
	// measured p50.
	budget func(v map[string]float64) float64
}

// sizes are the workloads' input sizes and the battery's sample counts.
// They are constants of the benchmark, not flags: a number in a report
// means these values. Only the smoke test shrinks them.
var sizes = struct {
	warmPool       int // pre-signed tags auth_warm cycles through
	coldIDs        int // auth_cold's working set ...
	coldCacheCap   int // ... against this verifier cache bound
	windowPool     int // pre-signed 64-signature windows batch_flood cycles through
	warmIDs        int // identities pre-enrolled for kgc_warm
	paperSeeds     int // seeds per (stack, attack, speed) point of sim_paper
	paperSimulated time.Duration
	cityNodes      int
	citySimulated  time.Duration
	batteryPct     int // the battery's sample counts, per cent of full
}{
	warmPool: 1024, coldIDs: 512, coldCacheCap: 128, windowPool: 32, warmIDs: 1024,
	paperSeeds: 2, paperSimulated: 300 * time.Second, cityNodes: 500, citySimulated: 60 * time.Second,
	batteryPct: 100,
}

var workloads = []workload{
	{name: "sign_fresh", clients: 1, setups: 9, setup: setupSignFresh, budget: budgetSignFresh,
		why: "Sign + tag encode on fresh 48-byte messages, 16 signers: zero pairings, one fixed-base G1 mult; the verification layers do no work here."},
	{name: "auth_warm", clients: 1, setups: 9, setup: setupAuthWarm, budget: budgetAuthWarm,
		why: "Decode pk + decode sig + Verify from 16 known neighbours, caches warm: one Miller loop + final exp dominate; hash_to_g2 and the pairing-constant miss do no work."},
	{name: "auth_cold", clients: 1, setups: 3, setup: setupAuthCold, budget: budgetAuthCold,
		why: "Same op over 512 identities through a 128-entry verifier cache, so every verify misses: adds hash_to_g2 + e(P_pub,Q_ID); first-contact authentication."},
	{name: "batch_flood", clients: 1, setups: 9, setup: setupBatchFlood, budget: budgetBatchFlood,
		why: "64-signature windows from 16 signers through VerifyMulti, 1 window in 8 forged: lockstep multi-pairing + bisection, the verification layer used differently."},
	{name: "kgc_cold", clients: 2, setups: 9, setup: setupKGCCold, budget: budgetKGCCold,
		why: "2-of-3 threshold KGC on loopback HTTP, 2 clients enrolling unique identities: hash_to_g2, G2 mults, share decode, Lagrange combine, fan-out; the cache does nothing."},
	{name: "kgc_warm", clients: 2, setups: 3, setup: setupKGCWarm, budget: budgetKGCWarm,
		why: "Same deployment, 1024 pre-enrolled identities drawn uniformly: LRU hit, rate limiter, JSON/hex/HTTP dominate; a crypto speed-up must not move it."},
	{name: "sim_paper", clients: 1, setups: 3, setup: setupSimPaper, budget: budgetSim,
		why: "One pass of the paper's 20-node 300 s trials (AODV/McCLS x attacks x speeds x seeds + DSR): tiny event queue, per-event dispatch and routing handlers dominate."},
	{name: "sim_city", clients: 1, setups: 3, setup: setupSimCity, budget: budgetSim,
		why: "500-node Manhattan city trials (AODV and McCLS): deep event queue and the spatial index dominate; bypassed by sim_paper."},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runPass drives the instance's closed loop for d (every client finishes
// the op it is in, and runs at least one) and returns the samples and the
// number of wrong answers. Op numbers start at first and are unique across
// clients.
func runPass(w *workload, inst instance, d time.Duration, tr *tracer, first int64) (*recorder, int, int64) {
	rec := &recorder{start: time.Now()}
	var (
		wg           sync.WaitGroup
		next, failed atomic.Int64
	)
	next.Store(first)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				s, ok := inst.op(c, next.Add(1)-1, tr)
				s.end = time.Since(rec.start)
				rec.add(s)
				if !ok {
					failed.Add(1)
				}
				if s.end >= d {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return rec, int(failed.Load()), next.Load()
}

// noLayerState is embedded by workloads that keep no counts of their own
// and hold nothing that needs closing.
type noLayerState struct{}

func (noLayerState) layerCounts() map[string]float64 { return nil }
func (noLayerState) close()                          {}
