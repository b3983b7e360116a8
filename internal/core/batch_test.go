package core

import (
	"bytes"
	"errors"
	"math/big"
	"reflect"
	"testing"

	"mccls/internal/batch"
	"mccls/internal/bn254"
)

// multiBatch builds n signatures spread across k distinct signers.
func multiBatch(t *testing.T, n, k int) (*KGC, *Verifier, []*PublicKey, [][]byte, []*Signature) {
	t.Helper()
	rng := fixedRand(90)
	kgc, err := Setup(rng)
	if err != nil {
		t.Fatal(err)
	}
	vf := NewVerifier(kgc.Params())
	sks := make([]*PrivateKey, k)
	for j := range sks {
		id := "node-" + string(rune('a'+j))
		if sks[j], err = GenerateKeyPair(kgc.Params(), kgc.ExtractPartialPrivateKey(id), rng); err != nil {
			t.Fatal(err)
		}
	}
	pks := make([]*PublicKey, n)
	msgs := make([][]byte, n)
	sigs := make([]*Signature, n)
	for i := 0; i < n; i++ {
		sk := sks[i%k]
		pks[i] = sk.Public()
		msgs[i] = []byte{byte(i), byte(i >> 8), byte(i * 5)}
		if sigs[i], err = Sign(kgc.Params(), sk, msgs[i], rng); err != nil {
			t.Fatal(err)
		}
	}
	return kgc, vf, pks, msgs, sigs
}

// fixedSeed is a deterministic 32-byte weight seed for invariance tests.
func fixedSeed() *bytes.Reader { return bytes.NewReader(bytes.Repeat([]byte{0x5a}, 32)) }

func TestBatchEngineBisectionLocatesOffenders(t *testing.T) {
	_, vf, pks, msgs, sigs := multiBatch(t, 20, 4)
	bad := append([][]byte{}, msgs...)
	bad[3] = []byte("tampered-3")
	bad[17] = []byte("tampered-17")
	err := vf.Batch(BatchOptions{ChunkSize: 8, Weights: fixedSeed()}).VerifyMulti(pks, bad, sigs)
	if !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("tampered batch: %v", err)
	}
	var be *batch.Error
	if !errors.As(err, &be) {
		t.Fatalf("rejection is not a *batch.Error: %v", err)
	}
	if want := []int{3, 17}; !reflect.DeepEqual(be.Bad, want) {
		t.Fatalf("offenders %v, want %v", be.Bad, want)
	}
}

func TestBatchEngineWorkerInvariance(t *testing.T) {
	_, vf, pks, msgs, sigs := multiBatch(t, 33, 3)
	bad := append([][]byte{}, msgs...)
	bad[0] = []byte("x")
	bad[16] = []byte("y")
	bad[32] = []byte("z")
	var want []int
	for _, workers := range []int{1, 4, 8} {
		err := vf.Batch(BatchOptions{Workers: workers, ChunkSize: 8, Weights: fixedSeed()}).
			VerifyMulti(pks, bad, sigs)
		var be *batch.Error
		if !errors.As(err, &be) {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 {
			want = be.Bad
			continue
		}
		if !reflect.DeepEqual(be.Bad, want) {
			t.Fatalf("workers=%d: offenders %v, want %v", workers, be.Bad, want)
		}
	}
	// A clean batch must accept at every worker count too.
	for _, workers := range []int{1, 4, 8} {
		opts := BatchOptions{Workers: workers, ChunkSize: 8, Weights: fixedSeed()}
		if err := vf.Batch(opts).VerifyMulti(pks, msgs, sigs); err != nil {
			t.Fatalf("workers=%d rejected a valid batch: %v", workers, err)
		}
	}
}

func TestBatchEngineSameSigner(t *testing.T) {
	kgc, sk, vf := newTestSystem(t, "sensor-99")
	rng := fixedRand(91)
	const n = 12
	msgs := make([][]byte, n)
	sigs := make([]*Signature, n)
	for i := range msgs {
		msgs[i] = []byte{byte(i)}
		var err error
		if sigs[i], err = Sign(kgc.Params(), sk, msgs[i], rng); err != nil {
			t.Fatal(err)
		}
	}
	bv := vf.Batch(BatchOptions{ChunkSize: 4, Weights: fixedSeed()})
	if err := bv.VerifySameSigner(sk.Public(), msgs, sigs); err != nil {
		t.Fatalf("valid same-signer batch rejected: %v", err)
	}
	bad := append([][]byte{}, msgs...)
	bad[7] = []byte("tampered")
	err := vf.Batch(BatchOptions{ChunkSize: 4, Weights: fixedSeed()}).
		VerifySameSigner(sk.Public(), bad, sigs)
	var be *batch.Error
	if !errors.As(err, &be) || !reflect.DeepEqual(be.Bad, []int{7}) {
		t.Fatalf("same-signer bisection: %v", err)
	}
}

// TestZeroChallengeHashRejected pins the ModInverse guard: a challenge hash
// h ≡ 0 (mod r) has no inverse and used to crash every verification path
// with a nil-pointer dereference inside big.Int.Mul. All paths must instead
// reject with ErrInvalidSignature.
func TestZeroChallengeHashRejected(t *testing.T) {
	kgc, sk, _ := newTestSystem(t, "zero-h")
	rng := fixedRand(92)
	msg := []byte("m")
	sig, err := Sign(kgc.Params(), sk, msg, rng)
	if err != nil {
		t.Fatal(err)
	}
	params := kgc.Params()
	params.h2Override = func([]byte, *bn254.G1, *bn254.G1) *big.Int { return new(big.Int) }
	vf := NewVerifier(params)
	pk := sk.Public()
	// Two-element windows, so the batch paths reach their own weighted
	// precomputation instead of delegating a singleton to Verify.
	pks, msgs, sigs := []*PublicKey{pk, pk}, [][]byte{msg, msg}, []*Signature{sig, sig}
	bv := func() *BatchVerifier { return vf.Batch(BatchOptions{Weights: fixedSeed()}) }
	paths := map[string]func() error{
		"Verify":           func() error { return vf.Verify(pk, msg, sig) },
		"VerifySameSigner": func() error { return bv().VerifySameSigner(pk, msgs, sigs) },
		"VerifyMulti":      func() error { return bv().VerifyMulti(pks, msgs, sigs) },
	}
	for name, run := range paths {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("zero challenge hash panicked: %v", r)
				}
			}()
			if err := run(); !errors.Is(err, ErrInvalidSignature) {
				t.Fatalf("zero challenge hash: got %v, want ErrInvalidSignature", err)
			}
		})
	}
}

// TestVerifierCacheBounded floods a small-capacity verifier with unique
// identities and checks the per-identity caches stay within their bound.
func TestVerifierCacheBounded(t *testing.T) {
	rng := fixedRand(93)
	kgc, err := Setup(rng)
	if err != nil {
		t.Fatal(err)
	}
	vf := NewVerifierCap(kgc.Params(), 4)
	if vf.CacheCap() != 4 {
		t.Fatalf("cap = %d, want 4", vf.CacheCap())
	}
	msg := []byte("flood")
	for i := 0; i < 12; i++ {
		id := "flood-" + string(rune('a'+i))
		sk, err := GenerateKeyPair(kgc.Params(), kgc.ExtractPartialPrivateKey(id), rng)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := Sign(kgc.Params(), sk, msg, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := vf.Verify(sk.Public(), msg, sig); err != nil {
			t.Fatal(err)
		}
	}
	if vf.CacheLen() != 4 {
		t.Fatalf("cache length %d after identity flood, want 4", vf.CacheLen())
	}
}
