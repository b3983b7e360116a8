// Benchmarks regenerating every table and figure of the paper's evaluation
// (run with `go test -bench=. -benchmem`):
//
//   - BenchmarkTable1/*     — sign/verify cost of AP, ZWXF, YHG and McCLS
//   - BenchmarkFigure/<id>  — every row of the figure table; the series
//     values are attached as custom benchmark metrics
//   - BenchmarkAblation*    — the design-choice ablations from DESIGN.md §5
//
// Figure benchmarks use a reduced sweep (two points, one seed, 30
// simulated seconds) so `go test -bench=.` stays minutes-scale; use
// cmd/manetsim for full paper-scale sweeps.
package mccls

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"mccls/internal/experiments"
	"mccls/internal/schemes"
	"mccls/manet"
)

// ---------------------------------------------------------------------------
// Table 1

func benchScheme(b *testing.B, sch schemes.Scheme, verify bool) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	sys, err := sch.Setup(rng)
	if err != nil {
		b.Fatal(err)
	}
	user, err := sys.NewUser("bench", rng)
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("benchmark message")
	// Warm per-identity caches so steady state is measured.
	sig, err := user.Sign(msg, rng)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Verify("bench", user.PublicKey(), msg, sig); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if verify {
		for i := 0; i < b.N; i++ {
			if err := sys.Verify("bench", user.PublicKey(), msg, sig); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	for i := 0; i < b.N; i++ {
		if _, err := user.Sign(msg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates the paper's Table 1: each sub-benchmark is
// one scheme × {sign, verify} cell.
func BenchmarkTable1(b *testing.B) {
	for _, sch := range schemes.All() {
		sch := sch
		b.Run(sch.Profile().Name+"/sign", func(b *testing.B) { benchScheme(b, sch, false) })
		b.Run(sch.Profile().Name+"/verify", func(b *testing.B) { benchScheme(b, sch, true) })
	}
}

// ---------------------------------------------------------------------------
// Figures

// BenchmarkFigure regenerates every row of the figure table on a reduced
// sweep of its axis, one sub-benchmark per figure id, attaching every
// series point as a metric, e.g. "fig1_AODV@5" = PDR of the AODV series at
// 5 m/s.
func BenchmarkFigure(b *testing.B) {
	axes := map[string][]float64{"v": {5, 15}, "churn": {0, 2}, "n": {50, 100}}
	for _, spec := range manet.Figures {
		axis, ok := axes[spec.Axis.Name]
		if !ok {
			b.Fatalf("%s sweeps axis family %q, which this benchmark has no reduced axis for", spec.ID, spec.Axis.Name)
		}
		b.Run(spec.ID, func(b *testing.B) {
			var fig manet.Figure
			var err error
			for i := 0; i < b.N; i++ {
				fig, err = manet.RunFigure(spec.ID, manet.SweepConfig{
					Base:    manet.Scenario{Duration: 30 * time.Second},
					Axis:    axis,
					Repeats: 1,
					Seed:    1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, s := range fig.Series {
				for i, x := range s.X {
					b.ReportMetric(s.Y[i], fmt.Sprintf("%s_%s@%g", fig.ID, strings.ReplaceAll(s.Label, " ", "_"), x))
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5)

// BenchmarkAblationVerifyCached quantifies the paper's "only one pairing
// because e(P_pub, Q_ID) is constant" claim: verification with a warm
// per-identity cache vs a cold verifier that pays hash-to-G2 and the
// constant's Miller loop on every call (one final exponentiation either way).
func BenchmarkAblationVerifyCached(b *testing.B) {
	kgc, err := Setup(rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	sk, err := GenerateKeyPair(kgc.Params(), kgc.ExtractPartialPrivateKey("n"), rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("m")
	sig, err := Sign(kgc.Params(), sk, msg, rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("warm", func(b *testing.B) {
		vf := NewVerifier(kgc.Params())
		if err := vf.Verify(sk.Public(), msg, sig); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := vf.Verify(sk.Public(), msg, sig); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := NewVerifier(kgc.Params()).Verify(sk.Public(), msg, sig); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationBatchVerify measures same-signer batch verification
// for growing batch sizes, on a verifier that has batched the window once
// and so decides it by the signer's accepted (S, A).
func BenchmarkAblationBatchVerify(b *testing.B) {
	kgc, err := Setup(rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	sk, err := GenerateKeyPair(kgc.Params(), kgc.ExtractPartialPrivateKey("n"), rng)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 4, 16} {
		msgs := make([][]byte, n)
		sigs := make([]*Signature, n)
		for i := range msgs {
			msgs[i] = []byte{byte(i)}
			if sigs[i], err = Sign(kgc.Params(), sk, msgs[i], rng); err != nil {
				b.Fatal(err)
			}
		}
		bv := NewVerifier(kgc.Params()).Batch(BatchOptions{})
		if err := bv.VerifySameSigner(sk.Public(), msgs, sigs); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("batch/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := bv.VerifySameSigner(sk.Public(), msgs, sigs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationJitter sweeps the honest rebroadcast jitter under a
// rushing attack: the jitter window is exactly what the attacker exploits,
// so the attacker-drop ratio (attached as a metric) grows with it.
func BenchmarkAblationJitter(b *testing.B) {
	for _, jitter := range []time.Duration{1 * time.Millisecond, 25 * time.Millisecond, 100 * time.Millisecond} {
		jitter := jitter
		b.Run(jitter.String(), func(b *testing.B) {
			var drop float64
			for i := 0; i < b.N; i++ {
				sc := manet.Scenario{
					Duration: 30 * time.Second,
					MaxSpeed: 5,
					Seed:     3,
					Attack:   manet.Rushing,
				}
				sc.AODV.RebroadcastJitterMax = jitter
				res, err := sc.Run()
				if err != nil {
					b.Fatal(err)
				}
				drop = res.PacketDropRatio()
			}
			b.ReportMetric(drop, "dropRatio")
		})
	}
}

// BenchmarkAblationRingSearch compares expanding-ring route discovery with
// straight flooding; the RREQ ratio is attached as a metric.
func BenchmarkAblationRingSearch(b *testing.B) {
	run := func(b *testing.B, flood bool) {
		var ratio float64
		for i := 0; i < b.N; i++ {
			sc := manet.Scenario{Duration: 30 * time.Second, MaxSpeed: 15, Seed: 4}
			if flood {
				sc.AODV.TTLStart = 12 // first ring already spans the network
			}
			res, err := sc.Run()
			if err != nil {
				b.Fatal(err)
			}
			ratio = res.RREQRatio()
		}
		b.ReportMetric(ratio, "rreqRatio")
	}
	b.Run("ring", func(b *testing.B) { run(b, false) })
	b.Run("flood", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationRealCrypto compares a McCLS-AODV run with real pairings
// per control packet against the calibrated cost model (identical routing
// decisions, very different wall clock).
func BenchmarkAblationRealCrypto(b *testing.B) {
	base := experiments.Scenario{
		Nodes:    8,
		Width:    800,
		Height:   300,
		Duration: 10 * time.Second,
		MaxSpeed: 5,
		Flows:    3,
		Seed:     5,
	}
	b.Run("costmodel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sc := base
			sc.Security = experiments.McCLSCost
			if _, err := sc.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("real", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sc := base
			sc.Security = experiments.McCLSReal
			if _, err := sc.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationInsiderGrayhole contrasts the outsider attacks (which
// McCLS stops outright) with an insider gray hole that signs valid control
// packets: the drop-ratio metric stays nonzero, delimiting what routing
// authentication buys.
func BenchmarkAblationInsiderGrayhole(b *testing.B) {
	var drop float64
	for i := 0; i < b.N; i++ {
		res, err := manet.Scenario{
			Duration: 30 * time.Second,
			MaxSpeed: 5,
			Seed:     6,
			Security: manet.McCLS,
			Attack:   manet.Grayhole,
		}.Run()
		if err != nil {
			b.Fatal(err)
		}
		drop = res.PacketDropRatio()
	}
	b.ReportMetric(drop, "dropRatio")
}

// BenchmarkAblationMultiSignerBatch measures cross-signer batch
// verification against verifying the same set one by one: after its first
// window, which settles each signer by Verify, the batch decides every
// signature by its signer's accepted (S, A), with no pairing.
func BenchmarkAblationMultiSignerBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	kgc, err := Setup(rng)
	if err != nil {
		b.Fatal(err)
	}
	const n = 8
	pks := make([]*PublicKey, n)
	msgs := make([][]byte, n)
	sigs := make([]*Signature, n)
	for i := 0; i < n; i++ {
		sk, err := GenerateKeyPair(kgc.Params(), kgc.ExtractPartialPrivateKey(fmt.Sprintf("s%d", i)), rng)
		if err != nil {
			b.Fatal(err)
		}
		pks[i] = sk.Public()
		msgs[i] = []byte{byte(i)}
		if sigs[i], err = Sign(kgc.Params(), sk, msgs[i], rng); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("one-by-one", func(b *testing.B) {
		vf := NewVerifier(kgc.Params())
		for i := range sigs { // warm the cache
			if err := vf.Verify(pks[i], msgs[i], sigs[i]); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range sigs {
				if err := vf.Verify(pks[j], msgs[j], sigs[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		bv := NewVerifier(kgc.Params()).Batch(BatchOptions{})
		for i := 0; i < b.N; i++ {
			if err := bv.VerifyMulti(pks, msgs, sigs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
