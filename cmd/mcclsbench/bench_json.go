package main

import (
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"runtime"
	"time"

	"mccls/internal/bn254"
	"mccls/internal/bn254/fp"
	"mccls/internal/core"
)

// benchEntry is one measured primitive in the BENCH_bn254.json dump.
type benchEntry struct {
	Name    string  `json:"name"`
	Iters   int     `json:"iters"`
	NsPerOp int64   `json:"ns_per_op"`
	MsPerOp float64 `json:"ms_per_op"`
}

// batchSweepEntry is one point of the batch-verification sweep: n
// signatures from min(16, n) signers — an RREQ-flood-shaped workload —
// checked through the multi-signer batch engine.
type batchSweepEntry struct {
	BatchSize  int     `json:"batch_size"`
	Signers    int     `json:"signers"`
	Iters      int     `json:"iters"`
	MsPerSig   float64 `json:"ms_per_sig"`
	SigsPerSec float64 `json:"sigs_per_sec"`
	// Speedup is per-signature throughput relative to the sequential
	// mccls_verify row of the same run.
	Speedup float64 `json:"speedup_vs_sequential"`
}

// fpKernelEntry compares the dispatched base-field kernel (assembly
// where the platform has one) against the portable generic code for one
// operation, on this machine, in this run.
type fpKernelEntry struct {
	Op        string  `json:"op"`
	GenericNs float64 `json:"generic_ns_per_op"`
	FastNs    float64 `json:"fast_ns_per_op"`
	Speedup   float64 `json:"speedup"`
}

// fpKernelReport records which Fp kernel path the build selected
// ("adx" or "generic") and the per-op generic-vs-fast microbenchmarks.
type fpKernelReport struct {
	Path string          `json:"path"`
	Ops  []fpKernelEntry `json:"ops"`
}

// benchReport is the schema of BENCH_bn254.json: enough context to compare
// runs across machines plus the per-primitive timings and the batch sweep.
type benchReport struct {
	GoVersion   string            `json:"go_version"`
	GOARCH      string            `json:"goarch"`
	Curve       string            `json:"curve"`
	Timestamp   string            `json:"timestamp"`
	FpKernel    *fpKernelReport   `json:"fp_kernel,omitempty"`
	Results     []benchEntry      `json:"results"`
	BatchVerify []batchSweepEntry `json:"batch_verify,omitempty"`
}

// timeOp measures fn over iters iterations and returns one entry.
func timeOp(name string, iters int, fn func()) benchEntry {
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	elapsed := time.Since(start)
	ns := elapsed.Nanoseconds() / int64(iters)
	return benchEntry{
		Name:    name,
		Iters:   iters,
		NsPerOp: ns,
		MsPerOp: float64(ns) / float64(time.Millisecond),
	}
}

// timeKernelNs measures fn with sub-nanosecond resolution — the Fp
// kernels run in tens of nanoseconds, so the integer ns/op of timeOp
// would round most of the signal away.
func timeKernelNs(fn func()) float64 {
	const iters = 2_000_000
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}

// benchFpKernel measures the dispatched Mul/Square/Add against the
// portable generic kernels and reports which path the build selected.
func benchFpKernel(r *rand.Rand) *fpKernelReport {
	var x, y, z fp.Element
	x.SetBigInt(new(big.Int).Rand(r, bn254.P))
	y.SetBigInt(new(big.Int).Rand(r, bn254.P))
	rep := &fpKernelReport{Path: fp.KernelPath()}
	for _, op := range []struct {
		name    string
		fast    func()
		generic func()
	}{
		{"mul", func() { z.Mul(&x, &y) }, func() { fp.GenericMul(&z, &x, &y) }},
		{"square", func() { z.Square(&x) }, func() { fp.GenericSquare(&z, &x) }},
		{"add", func() { z.Add(&x, &y) }, func() { fp.GenericAdd(&z, &x, &y) }},
	} {
		e := fpKernelEntry{
			Op:        op.name,
			GenericNs: timeKernelNs(op.generic),
			FastNs:    timeKernelNs(op.fast),
		}
		if e.FastNs > 0 {
			e.Speedup = e.GenericNs / e.FastNs
		}
		rep.Ops = append(rep.Ops, e)
	}
	return rep
}

// benchBatchSweep times the multi-signer batch engine at each batch size.
// The workload models an RREQ flood: every signature covers a distinct
// payload and the signer population is capped at 16 (a receiver hears the
// same neighborhood repeatedly), so the engine's per-identity Q_ID grouping
// and caching are exercised the way the routing layer exercises them.
func benchBatchSweep(vf *core.Verifier, kgc *core.KGC, rng *rand.Rand, sizes []int, seqMs float64) ([]batchSweepEntry, error) {
	maxN := 0
	for _, n := range sizes {
		if n > maxN {
			maxN = n
		}
	}
	if maxN == 0 {
		return nil, nil
	}
	signers := 16
	if maxN < signers {
		signers = maxN
	}
	sks := make([]*core.PrivateKey, signers)
	for j := range sks {
		var err error
		sks[j], err = core.GenerateKeyPair(kgc.Params(),
			kgc.ExtractPartialPrivateKey(fmt.Sprintf("rreq-%d@manet", j)), rng)
		if err != nil {
			return nil, err
		}
	}
	pks := make([]*core.PublicKey, maxN)
	msgs := make([][]byte, maxN)
	sigs := make([]*core.Signature, maxN)
	for i := 0; i < maxN; i++ {
		sk := sks[i%signers]
		pks[i] = sk.Public()
		msgs[i] = []byte(fmt.Sprintf("RREQ origin=%d id=%d", i%signers, i))
		var err error
		if sigs[i], err = core.Sign(kgc.Params(), sk, msgs[i], rng); err != nil {
			return nil, err
		}
	}
	// Warm the per-identity caches (Q_ID, e(P_pub, Q_ID)) — steady-state
	// flood verification runs against known neighbors.
	if err := vf.Batch(core.BatchOptions{}).VerifyMulti(pks[:signers], msgs[:signers], sigs[:signers]); err != nil {
		return nil, err
	}
	var sweep []batchSweepEntry
	for _, n := range sizes {
		if n <= 0 {
			continue
		}
		bv := vf.Batch(core.BatchOptions{})
		reps := 512 / n
		if reps < 2 {
			reps = 2
		}
		start := time.Now()
		for r := 0; r < reps; r++ {
			if err := bv.VerifyMulti(pks[:n], msgs[:n], sigs[:n]); err != nil {
				return nil, err
			}
		}
		perSig := time.Since(start) / time.Duration(reps*n)
		msPerSig := float64(perSig.Nanoseconds()) / float64(time.Millisecond)
		entry := batchSweepEntry{
			BatchSize:  n,
			Signers:    min(signers, n),
			Iters:      reps,
			MsPerSig:   msPerSig,
			SigsPerSec: float64(time.Second) / float64(perSig),
		}
		if msPerSig > 0 {
			entry.Speedup = seqMs / msPerSig
		}
		sweep = append(sweep, entry)
	}
	return sweep, nil
}

// writeBenchJSON times the BN254 substrate primitives that dominate McCLS
// sign/verify cost plus the batch-verification sweep, and writes them to
// path as JSON.
func writeBenchJSON(path string, iters int, batchSizes []int) error {
	r := rand.New(rand.NewSource(1))
	k1 := new(big.Int).Rand(r, bn254.Order)
	k2 := new(big.Int).Rand(r, bn254.Order)
	bn254.PrecomputeFixedBase()
	p := new(bn254.G1).ScalarBaseMult(k1)
	q := new(bn254.G2).ScalarBaseMult(k2)
	msg := []byte("mcclsbench probe message")

	// A complete McCLS deployment for the end-to-end sign/verify rows.
	kgc, err := core.Setup(r)
	if err != nil {
		return err
	}
	sk, err := core.GenerateKeyPair(kgc.Params(), kgc.ExtractPartialPrivateKey("bench@manet"), r)
	if err != nil {
		return err
	}
	vf := core.NewVerifier(kgc.Params())
	sig, err := core.Sign(kgc.Params(), sk, msg, r)
	if err != nil {
		return err
	}
	if err := vf.Verify(sk.Public(), msg, sig); err != nil {
		return err
	}

	pairing := timeOp("pairing", iters, func() { bn254.Pair(p, q) })
	// The unexported final exponentiation: a pairing minus its Miller loop.
	finalExp := timeOp("final_exponentiation", iters, func() { bn254.MillerLoopMulti([]*bn254.G1{p}, []*bn254.G2{q}) })
	finalExp.NsPerOp = pairing.NsPerOp - finalExp.NsPerOp
	finalExp.MsPerOp = float64(finalExp.NsPerOp) / float64(time.Millisecond)

	rep := benchReport{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Curve:     "BN254 (Montgomery fixed-width Fp + platform mul kernels, GLV/wNAF + lockstep multi-pairing + cyclotomic final exp)",
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		FpKernel:  benchFpKernel(r),
		Results: []benchEntry{
			pairing,
			finalExp,
			timeOp("g1_scalar_mult", iters, func() { new(bn254.G1).ScalarMult(p, k2) }),
			timeOp("g1_scalar_base_mult", iters, func() { new(bn254.G1).ScalarBaseMult(k2) }),
			timeOp("g2_scalar_mult", iters, func() { new(bn254.G2).ScalarMult(q, k1) }),
			timeOp("g2_subgroup_check", iters, func() { q.IsInSubgroup() }),
			timeOp("hash_to_g1", iters, func() { bn254.HashToG1("bench", msg) }),
			timeOp("hash_to_g2", iters, func() { bn254.HashToG2("bench", msg) }),
			timeOp("gt_exp", iters, func() { new(bn254.GT).Exp(bn254.Pair(p, q), k1) }),
			timeOp("mccls_sign", iters, func() {
				if _, err := core.Sign(kgc.Params(), sk, msg, r); err != nil {
					panic(err)
				}
			}),
			timeOp("mccls_verify", iters, func() {
				if err := vf.Verify(sk.Public(), msg, sig); err != nil {
					panic(err)
				}
			}),
		},
	}
	var seqMs float64
	for _, e := range rep.Results {
		if e.Name == "mccls_verify" {
			seqMs = e.MsPerOp
		}
	}
	if rep.BatchVerify, err = benchBatchSweep(vf, kgc, r, batchSizes, seqMs); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "mcclsbench: wrote %s\n", path)
	return nil
}
