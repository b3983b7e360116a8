package main

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"mccls/internal/bn254"
	"mccls/internal/bn254/fp"
	"mccls/internal/core"
	"mccls/internal/mobility"
	"mccls/internal/radio"
	"mccls/internal/sim"
	"mccls/internal/threshold"
)

// The layer battery: standalone micro-drivers that replay each layer's
// public calls on seeded inputs and report the layer's unit cost (a median)
// or an exact operation count. It runs in every traced pass, whatever the
// workload, so a layer's figure means the same thing in every report; the
// workload's own exact counts say how often the op pays it.

// mallocs and cpuSeconds read the process-wide counters the per-op
// allocation and CPU figures are deltas of.
func mallocs() (count, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// battery returns every battery metric by name.
func battery(seed int64) (map[string]float64, error) {
	m := map[string]float64{}
	batteryFp(m, rand.New(rand.NewSource(seed)))
	for _, section := range []func(map[string]float64, int64) error{batteryCrypto, batteryBatch, batteryKGC} {
		runtime.GC() // one section's garbage is not the next one's CPU time
		if err := section(m, seed); err != nil {
			return nil, err
		}
	}
	batterySim(m, seed)
	return m, nil
}

func scalar(rng *rand.Rand) *big.Int {
	k, err := bn254.RandomScalar(rng)
	if err != nil {
		panic(err) // a math/rand reader cannot fail
	}
	return k
}

func batteryFp(m map[string]float64, rng *rand.Rand) {
	var a, b fp.Element
	a.SetBigInt(scalar(rng))
	b.SetBigInt(scalar(rng))
	m["fp.mul_ns"] = timeBatches(reps(101), 2000, func() { a.Mul(&a, &b) })
	m["fp.square_ns"] = timeBatches(reps(101), 2000, func() { a.Square(&a) })
}

// reps scales a sample count by sizes.batteryPct.
func reps(n int) int { return max(n*sizes.batteryPct/100, 3) }

// batteryCrypto times the bn254 and core calls a signature's life is made
// of, interleaved, and the exact pairing counts of a verification.
func batteryCrypto(m map[string]float64, seed int64) error {
	inst, err := setupAuthWarm(seed, nil)
	if err != nil {
		return err
	}
	w := inst.(*auth)
	f, pool := w.fixture, w.pool

	const n = 64
	ps := make([]*bn254.G1, n)
	qs := make([]*bn254.G2, n)
	ks := make([]*big.Int, n)
	for i := range ps {
		ks[i] = scalar(f.rng)
		ps[i] = new(bn254.G1).ScalarBaseMult(ks[i])
		qs[i] = bn254.HashToG2("bench-battery", ks[i].Bytes())
	}
	// Decoded forms of the pool, for the calls that take them.
	pks := make([]*core.PublicKey, len(pool))
	sigs := make([]*core.Signature, len(pool))
	for i, p := range pool {
		pks[i] = f.peers[p.from].sk.Public()
		if sigs[i], err = core.UnmarshalSignature(p.tag[pidBytes:]); err != nil {
			return err
		}
	}
	pkRaw := pks[0].Marshal()
	// Hit: the warm verifier of auth_warm. Miss: a one-entry cache and
	// alternating identities, so both per-identity constants are rebuilt.
	verify := func(vf *core.Verifier) func(int) {
		return func(i int) { _ = vf.Verify(pks[i], pool[i].msg, sigs[i]) }
	}
	cold := core.NewVerifierCap(f.params, 1)

	cols := interleave(reps(151),
		timed{"bn254.miller1_us", func(i int) { bn254.MillerLoopMulti(ps[i%n:i%n+1], qs[i%n:i%n+1]) }},
		timed{"bn254.pair_us", func(i int) { bn254.Pair(ps[i%n], qs[i%n]) }},
		timed{"bn254.hash_to_g2_us", func(i int) { bn254.HashToG2("bench-battery", []byte{byte(i), 1}) }},
		timed{"bn254.g2_subgroup_us", func(i int) { qs[i%n].IsInSubgroup() }},
		timed{"bn254.g2_mult_us", func(i int) { new(bn254.G2).ScalarMult(qs[i%n], ks[(i+1)%n]) }},
		timed{"bn254.g1_mult_us", func(i int) { new(bn254.G1).ScalarMult(ps[i%n], ks[(i+1)%n]) }},
		timed{"bn254.g1_base_mult_us", func(i int) { new(bn254.G1).ScalarBaseMult(ks[i%n]) }},
		timed{"bn254.g1_base_mult_add_us", func(i int) { new(bn254.G1).ScalarBaseMultAdd(ks[i%n], ps[(i+1)%n]) }},
		timed{"core.sign_us", func(i int) { core.Sign(f.params, f.peers[i%warmSigners].sk, pool[i].msg, f.rng) }},
		timed{"core.sig_marshal_us", func(i int) { sigs[i].Marshal() }},
		timed{"core.sig_unmarshal_us", func(i int) { core.UnmarshalSignature(pool[i].tag[pidBytes:]) }},
		timed{"core.pk_unmarshal_us", func(int) { core.UnmarshalPublicKey(pkRaw) }},
		timed{"core.verify_hit_us", verify(w.vf)},
		timed{"core.verify_miss_us", verify(cold)},
	)
	for name, col := range cols.cols {
		m[name] = median(col) / 1e3
	}
	m["bn254.final_exp_us"] = cols.perRound(func(at func(string) float64) float64 {
		return at("bn254.pair_us") - at("bn254.miller1_us")
	}) / 1e3
	m["core.verify_hit_residual_pct"] = cols.perRound(func(at func(string) float64) float64 {
		return 100 * (1 - (at("bn254.g1_base_mult_add_us")+at("bn254.pair_us"))/at("core.verify_hit_us"))
	})
	m["core.verify_miss_residual_pct"] = cols.perRound(func(at func(string) float64) float64 {
		return 100 * (1 - (at("bn254.g1_base_mult_add_us")+2*at("bn254.pair_us")+at("bn254.hash_to_g2_us"))/at("core.verify_miss_us"))
	})
	m["bn254.miller64_us"] = timeCalls(reps(5), func(int) { bn254.MillerLoopMulti(ps, qs) }) / 1e3

	const calls = 32
	count := func(call func(int)) bn254.OpCounts {
		before := bn254.ReadOpCounts()
		for i := 0; i < calls; i++ {
			call(i)
		}
		return bn254.ReadOpCounts().Sub(before)
	}
	m["bn254.pairings_per_verify_warm"] = float64(count(verify(w.vf)).Pairings) / calls
	m["bn254.pairings_per_verify_cold"] = float64(count(verify(cold)).Pairings) / calls

	allocs := func(call func(int)) (perOp, bytesPerOp float64) {
		c0, b0 := mallocs()
		for i := 0; i < calls; i++ {
			call(i)
		}
		c1, b1 := mallocs()
		return float64(c1-c0) / calls, float64(b1-b0) / calls
	}
	m["core.allocs_per_sign"], _ = allocs(func(i int) { core.Sign(f.params, f.peers[0].sk, pool[i].msg, f.rng) })
	m["core.allocs_per_verify"], m["core.bytes_per_verify"] = allocs(verify(w.vf))

	ppks := make([]*core.PartialPrivateKey, reps(31))
	m["core.extract_us"] = timeCalls(len(ppks), func(i int) {
		ppks[i] = f.kgc.ExtractPartialPrivateKey(fmt.Sprintf("battery-%d", i))
	}) / 1e3
	m["core.keygen_us"] = timeCalls(len(ppks), func(i int) { core.GenerateKeyPair(f.params, ppks[i], f.rng) }) / 1e3
	return nil
}

func batteryBatch(m map[string]float64, seed int64) error {
	inst, err := setupBatchFlood(seed, nil)
	if err != nil {
		return err
	}
	w := inst.(*batchFlood)
	clean, forged := w.windows[0], w.windows[forgedEvery-1]
	run := func(win window) func(int) {
		return func(int) { _ = w.bv.VerifyMulti(win.pks, win.msgs, win.sigs) }
	}
	before := bn254.ReadOpCounts()
	c0, _ := mallocs()
	run(clean)(0)
	c1, _ := mallocs()
	ops := bn254.ReadOpCounts().Sub(before)
	m["bn254.final_exps_per_window"] = float64(ops.FinalExps)
	m["bn254.miller_squarings_per_window"] = float64(ops.MillerSquarings)
	m["batch.allocs_per_sig"] = float64(c1-c0) / windowSigs

	// The same 64 signatures as one window and one by one, round by round.
	cols := interleave(reps(7), timed{"window", run(clean)}, timed{"singly", func(int) {
		for j := range clean.sigs {
			_ = w.bv.Verify(clean.pks[j], clean.msgs[j], clean.sigs[j])
		}
	}})
	m["batch.us_per_sig"] = median(cols.cols["window"]) / 1e3 / windowSigs
	m["batch.speedup_vs_single"] = cols.perRound(func(at func(string) float64) float64 { return at("singly") / at("window") })
	m["batch.forged_window_p50_ms"] = timeCalls(reps(5), run(forged)) / 1e6

	// One signer's 64 signatures through the same-signer equation.
	pk := w.peers[0].sk.Public()
	var msgs [][]byte
	var sigs []*core.Signature
	for j := 0; j < windowSigs; j++ {
		_, msg, sig, err := w.decoded(0)
		if err != nil {
			return err
		}
		msgs, sigs = append(msgs, msg), append(sigs, sig)
	}
	m["batch.same_signer_window_ms"] = timeCalls(reps(5), func(int) { _ = w.bv.VerifySameSigner(pk, msgs, sigs) }) / 1e6
	return nil
}

// batteryKGC drives a private 2-of-3 deployment with one client, so the
// figures are free of the queueing the two-client workloads add on purpose,
// and times the threshold layer's calls between the enrollments, so that
// the G2 work known to be in an enrollment and the CPU time the enrollment
// took are measured over the same seconds.
func batteryKGC(m map[string]float64, seed int64) error {
	cold, warm := reps(64), reps(256)
	tr := newTracer()
	tr.on.Store(true)
	d, err := startDeployment(seed, 1, tr)
	if err != nil {
		return err
	}
	defer d.close()
	// Connections and lazily built state come up outside the measured part.
	if _, err := d.clients[0].Enroll(context.Background(), "battery-warmup"); err != nil {
		return err
	}
	tr.take()

	// A second split of the same kind, for the threshold layer's own calls.
	rng := rand.New(rand.NewSource(seed))
	shares, err := threshold.Split(scalar(rng), kgcT, kgcN, rng)
	if err != nil {
		return err
	}
	var signers []*threshold.Signer
	for _, sh := range shares[:kgcT] {
		s, err := threshold.NewSigner(d.params, sh)
		if err != nil {
			return err
		}
		signers = append(signers, s)
	}
	quorum := make([]*threshold.KeyShare, kgcT)
	var raw []byte
	var failed error
	var cpu float64
	var g2Mults, allocs uint64
	id := func(i int) string { return fmt.Sprintf("battery-%d", i) }
	cols := interleave(cold,
		timed{"enroll", func(i int) {
			c0, _ := mallocs()
			cpu0, ops0 := cpuSeconds(), bn254.ReadOpCounts()
			if _, ok := d.enroll(0, int64(i), id(i), false, tr); !ok {
				failed = fmt.Errorf("battery: cold enroll %d failed", i)
			}
			cpu += cpuSeconds() - cpu0
			g2Mults += bn254.ReadOpCounts().Sub(ops0).G2ScalarMults
			c1, _ := mallocs()
			allocs += c1 - c0
		}},
		timed{"threshold.issue_us", func(i int) { quorum[0] = signers[0].Issue(id(i)) }},
		timed{"second share", func(i int) { quorum[1] = signers[1].Issue(id(i)); raw = quorum[1].Marshal() }},
		timed{"threshold.keyshare_unmarshal_us", func(i int) { threshold.UnmarshalKeyShare(id(i), raw) }},
		timed{"threshold.combine_us", func(i int) { threshold.Combine(id(i), quorum) }},
		timed{"subgroup", func(i int) { quorum[0].D.IsInSubgroup() }},
	)
	if failed != nil {
		return failed
	}
	st := spanStats(tr.take())
	for _, name := range []string{"threshold.issue_us", "threshold.keyshare_unmarshal_us", "threshold.combine_us"} {
		m[name] = median(cols.cols[name]) / 1e3
	}

	client, combiner, signer := spanP50(st, "kgcd.Client.Enroll"), spanP50(st, "kgcd.combiner_handler"), spanP50(st, "kgcd.signer_handler")
	m["kgcd.combiner_handler_us"] = combiner
	m["kgcd.signer_handler_us"] = signer
	m["kgcd.client_overhead_us"] = client - combiner
	// The fan-out runs its t share requests side by side, so one signer
	// handler is on the combiner's critical path, not t of them.
	m["kgcd.combiner_self_us"] = combiner - signer - m["threshold.combine_us"] - kgcT*m["threshold.keyshare_unmarshal_us"]
	m["kgcd.cpu_ms_per_enroll"] = 1e3 * cpu / float64(cold)
	m["kgcd.allocs_per_enroll"] = float64(allocs) / float64(cold)
	m["bn254.g2_mults_per_cold_enroll"] = float64(g2Mults) / float64(cold)
	// Known G2 work of one enrollment: t share issuances, t share decodes
	// and the Lagrange combine on the servers, one subgroup check in the
	// client's decode.
	var known float64
	for i := 0; i < cold; i++ {
		at := func(name string) float64 { return cols.cols[name][i] }
		known += kgcT*(at("threshold.issue_us")+at("threshold.keyshare_unmarshal_us")) + at("threshold.combine_us") + at("subgroup")
	}
	m["kgcd.cold_residual_pct"] = 100 * (1 - known/1e9/cpu)

	for i := 0; i < warm; i++ {
		if _, ok := d.enroll(0, int64(cold+i), id(i%cold), true, tr); !ok {
			return fmt.Errorf("battery: warm enroll %d failed", i)
		}
	}
	m["kgcd.warm_enroll_us"] = spanP50(spanStats(tr.take()), "kgcd.Client.Enroll")
	return nil
}

// holder is a no-op action that reschedules itself, holding the queue at
// the depth it was seeded with.
type holder struct {
	s *sim.Simulator
	x uint64
}

func (h *holder) Fire() {
	h.x = h.x*6364136223846793005 + 1442695040888963407
	h.s.ScheduleAction(time.Duration(h.x>>44)+1, h) // up to ~1 ms ahead
}

// queueNS is the cost of one ScheduleAction + dispatch at a held depth.
func queueNS(seed int64, depth int) float64 {
	events := reps(200_000)
	return timeCalls(reps(5), func(rep int) {
		s := sim.New(seed)
		for k := 0; k < depth; k++ {
			h := &holder{s: s, x: uint64(seed) + uint64(rep*depth+k)}
			h.Fire()
		}
		s.SetMaxEvents(uint64(events))
		s.RunAll()
	}) / float64(events)
}

// neighborQueryNS is the cost of one AppendNeighbors, grid rebuilds
// included, over a mobility model's first simulated seconds.
func neighborQueryNS(s *sim.Simulator, mob mobility.Model, medium *radio.Medium) (query, position float64) {
	steps := reps(40)
	n := mob.Nodes()
	var buf []int
	query = timeCalls(steps, func(step int) {
		s.Run(time.Duration(step) * 100 * time.Millisecond) // empty queue: moves the clock
		for node := 0; node < n; node++ {
			buf = medium.AppendNeighbors(node, buf[:0])
		}
	}) / float64(n)
	position = timeCalls(steps, func(step int) {
		at := time.Duration(step) * 100 * time.Millisecond
		for node := 0; node < n; node++ {
			mob.Position(node, at)
		}
	}) / float64(n)
	return query, position
}

func batterySim(m map[string]float64, seed int64) {
	m["sim.queue_ns_d200"] = queueNS(seed, 200)
	m["sim.queue_ns_d3000"] = queueNS(seed, 3000)

	// The paper's field and the city's, as the scenarios build them.
	const horizon = 10 * time.Second
	s := sim.New(seed)
	paper := mobility.NewRandomWaypoint(mobility.RandomWaypointConfig{Width: 1500, Height: 300, MaxSpeed: 10}, 20, horizon, s.Rand())
	m["radio.neighbor_query_ns_n20"], _ = neighborQueryNS(s, paper, radio.New(s, paper, radio.Config{Range: 350}))

	s = sim.New(seed)
	city := mobility.NewManhattanGrid(mobility.ManhattanGridConfig{Width: 2000, Height: 2000, MaxSpeed: 10}, 500, horizon, s.Rand())
	medium := radio.New(s, city, radio.Config{Range: 350})
	jitter := rand.New(rand.NewSource(seed))
	for node := 0; node < city.Nodes(); node++ {
		medium.SetNodeRange(node, 350*(1+0.3*(2*jitter.Float64()-1)))
	}
	m["radio.neighbor_query_ns_n500"], m["mobility.position_ns"] = neighborQueryNS(s, city, medium)
}
