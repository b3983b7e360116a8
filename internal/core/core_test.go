package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"mccls/internal/bn254"
	"mccls/internal/bn254/fr"
)

// fixedRand returns a deterministic randomness source for reproducible
// tests. It is NOT cryptographically secure.
func fixedRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// qID is the exact identity hash Q_ID = H1(ID), which no shipped path
// computes: they fold c′ into a scalar or point and use Y_ID instead.
func qID(id string) *bn254.G2 { return bn254.HashToG2(domainH1, []byte(id)) }

// newTestSystem builds a KGC and one enrolled user.
func newTestSystem(t *testing.T, id string) (*KGC, *PrivateKey, *Verifier) {
	t.Helper()
	rng := fixedRand(1)
	kgc, err := Setup(rng)
	if err != nil {
		t.Fatal(err)
	}
	ppk := kgc.ExtractPartialPrivateKey(id)
	sk, err := GenerateKeyPair(kgc.Params(), ppk, rng)
	if err != nil {
		t.Fatal(err)
	}
	return kgc, sk, NewVerifier(kgc.Params())
}

func TestSignVerifyRoundTrip(t *testing.T) {
	kgc, sk, vf := newTestSystem(t, "node-1@manet")
	msg := []byte("RREQ 7 from node-1")
	sig, err := Sign(kgc.Params(), sk, msg, fixedRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := vf.Verify(sk.Public(), msg, sig); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
	// A second signature on the same message uses fresh randomness and must
	// also verify (signatures are probabilistic).
	sig2, err := Sign(kgc.Params(), sk, msg, fixedRand(3))
	if err != nil {
		t.Fatal(err)
	}
	if sig2.R.Equal(sig.R) {
		t.Fatal("distinct randomness produced identical commitments")
	}
	if err := vf.Verify(sk.Public(), msg, sig2); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
}

// verifySpec is the test oracle for Verify: the verification equation
// exactly as written in the paper, e(V·P - h·R, h⁻¹·S) = e(P_pub, Q_ID),
// with none of the fast path's rearrangement (no scalar folding into the
// fixed-base pass, a real G2 scalar multiplication by h⁻¹) and none of its
// state: the right-hand side is a full pairing computed here, so the oracle
// shares no cache with the code under test. vf supplies the parameters only.
func verifySpec(vf *Verifier, pk *PublicKey, msg []byte, sig *Signature) error {
	if err := checkShape(pk, sig, nil); err != nil {
		return err
	}
	if !sig.S.IsInSubgroup() { // the paper's S is in G2
		return ErrVerifyFailed
	}
	hFr := vf.params.hashH2(msg, sig.R, pk.PID)
	h := hFr.BigInt()
	hInv := new(big.Int).ModInverse(h, bn254.Order)
	if hInv == nil {
		return fmt.Errorf("%w: challenge hash is zero mod r", ErrInvalidSignature)
	}
	left := new(bn254.G1).ScalarBaseMult(sig.V.BigInt())
	left.Add(left, new(bn254.G1).Neg(new(bn254.G1).ScalarMult(sig.R, h)))
	s := new(bn254.G2).ScalarMult(sig.S, hInv)
	if !bn254.Pair(left, s).Equal(bn254.Pair(vf.params.Ppub, qID(pk.ID))) {
		return ErrVerifyFailed
	}
	return nil
}

func TestVerifySpecAgreesWithFastPath(t *testing.T) {
	kgc, sk, vf := newTestSystem(t, "alice")
	for i := 0; i < 4; i++ {
		msg := []byte{byte(i), 0xAB}
		sig, err := Sign(kgc.Params(), sk, msg, fixedRand(int64(10+i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := vf.Verify(sk.Public(), msg, sig); err != nil {
			t.Fatalf("fast path rejected valid sig: %v", err)
		}
		if err := verifySpec(vf, sk.Public(), msg, sig); err != nil {
			t.Fatalf("spec path rejected valid sig: %v", err)
		}
		// Both paths must also agree on rejection.
		bad := &Signature{V: sig.V, S: sig.S, R: new(bn254.G1).ScalarBaseMult(big.NewInt(99))}
		if vf.Verify(sk.Public(), msg, bad) == nil || verifySpec(vf, sk.Public(), msg, bad) == nil {
			t.Fatal("tampered signature accepted")
		}
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	kgc, sk, vf := newTestSystem(t, "alice")
	msg := []byte("telemetry: temp=21.5C")
	sig, err := Sign(kgc.Params(), sk, msg, fixedRand(7))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("message", func(t *testing.T) {
		if err := vf.Verify(sk.Public(), []byte("telemetry: temp=99.9C"), sig); !errors.Is(err, ErrVerifyFailed) {
			t.Fatalf("want ErrVerifyFailed, got %v", err)
		}
	})
	t.Run("V", func(t *testing.T) {
		one := fr.One()
		bad := &Signature{V: *new(fr.Element).Add(&sig.V, &one), S: sig.S, R: sig.R}
		if err := vf.Verify(sk.Public(), msg, bad); err == nil {
			t.Fatal("accepted tampered V")
		}
	})
	t.Run("S", func(t *testing.T) {
		bad := &Signature{V: sig.V, S: new(bn254.G2).Add(sig.S, bn254.G2Generator()), R: sig.R}
		if err := vf.Verify(sk.Public(), msg, bad); err == nil {
			t.Fatal("accepted tampered S")
		}
	})
	t.Run("R", func(t *testing.T) {
		bad := &Signature{V: sig.V, S: sig.S, R: new(bn254.G1).Add(sig.R, bn254.G1Generator())}
		if err := vf.Verify(sk.Public(), msg, bad); err == nil {
			t.Fatal("accepted tampered R")
		}
	})
	t.Run("wrong identity", func(t *testing.T) {
		forged := &PublicKey{ID: "bob", PID: sk.Public().PID}
		if err := vf.Verify(forged, msg, sig); err == nil {
			t.Fatal("signature verified under a different identity")
		}
	})
	t.Run("wrong public key", func(t *testing.T) {
		forged := &PublicKey{ID: sk.ID(), PID: new(bn254.G1).ScalarBaseMult(big.NewInt(12345))}
		if err := vf.Verify(forged, msg, sig); err == nil {
			t.Fatal("signature verified under a replaced public key")
		}
	})
}

func TestCrossUserSignaturesRejected(t *testing.T) {
	rng := fixedRand(9)
	kgc, err := Setup(rng)
	if err != nil {
		t.Fatal(err)
	}
	mkUser := func(id string) *PrivateKey {
		sk, err := GenerateKeyPair(kgc.Params(), kgc.ExtractPartialPrivateKey(id), rng)
		if err != nil {
			t.Fatal(err)
		}
		return sk
	}
	alice, bob := mkUser("alice"), mkUser("bob")
	vf := NewVerifier(kgc.Params())
	msg := []byte("hello")
	sig, err := Sign(kgc.Params(), alice, msg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := vf.Verify(bob.Public(), msg, sig); err == nil {
		t.Fatal("alice's signature verified as bob's")
	}
}

func TestVerifierAcrossSystems(t *testing.T) {
	// A signature from system A must not verify under system B's params.
	rngA, rngB := fixedRand(20), fixedRand(21)
	kgcA, _ := Setup(rngA)
	kgcB, _ := Setup(rngB)
	skA, err := GenerateKeyPair(kgcA.Params(), kgcA.ExtractPartialPrivateKey("n1"), rngA)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("x")
	sig, err := Sign(kgcA.Params(), skA, msg, rngA)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewVerifier(kgcB.Params()).Verify(skA.Public(), msg, sig); err == nil {
		t.Fatal("cross-system verification succeeded")
	}
}

func TestPartialKeyValidate(t *testing.T) {
	rng := fixedRand(4)
	kgc, _ := Setup(rng)
	ppk := kgc.ExtractPartialPrivateKey("alice")
	if err := ppk.Validate(kgc.Params()); err != nil {
		t.Fatalf("valid partial key rejected: %v", err)
	}
	// Key for a different identity must fail validation under this ID.
	forged := &PartialPrivateKey{ID: "alice", D: kgc.ExtractPartialPrivateKey("mallory").D}
	if err := forged.Validate(kgc.Params()); err == nil {
		t.Fatal("accepted partial key for the wrong identity")
	}
	// Garbage D must fail.
	bad := &PartialPrivateKey{ID: "alice", D: bn254.G2Infinity()}
	if err := bad.Validate(kgc.Params()); err == nil {
		t.Fatal("accepted identity element as partial key")
	}
	// GenerateKeyPair must refuse an invalid partial key.
	if _, err := GenerateKeyPair(kgc.Params(), forged, rng); err == nil {
		t.Fatal("keygen accepted invalid partial key")
	}
}

// TestIssuePartialKeyMatchesExactHash pins the fused issuance, (k·c′)·Y_ID,
// byte for byte to k·H1(ID) with the exact hash, at the edges of the scalar
// range and at a random scalar.
func TestIssuePartialKeyMatchesExactHash(t *testing.T) {
	kgc, err := Setup(fixedRand(6))
	if err != nil {
		t.Fatal(err)
	}
	random, err := fr.Random(fixedRand(7))
	if err != nil {
		t.Fatal(err)
	}
	one := fr.One()
	var minusOne fr.Element
	minusOne.Neg(&one)
	for _, k := range []fr.Element{one, fr.NewElement(2), minusOne, random} {
		for _, id := range []string{"alice", "node-7@manet", ""} {
			got := IssuePartialKey(kgc.Params(), id, &k)
			want := new(bn254.G2).ScalarMultFr(qID(id), &k)
			if got.ID != id || !bytes.Equal(got.D.Marshal(), want.Marshal()) {
				t.Fatalf("IssuePartialKey(%q, %v) = %v, want k·H1(ID) = %v", id, k.BigInt(), got.D, want)
			}
		}
	}
}

func TestKGCFromMaster(t *testing.T) {
	rng := fixedRand(5)
	kgc, _ := Setup(rng)
	clone, err := NewKGCFromMaster(kgc.MasterKey())
	if err != nil {
		t.Fatal(err)
	}
	if !clone.Params().Ppub.Equal(kgc.Params().Ppub) {
		t.Fatal("restored KGC has different P_pub")
	}
	for _, bad := range []*big.Int{nil, big.NewInt(0), new(big.Int).Set(bn254.Order)} {
		if _, err := NewKGCFromMaster(bad); err == nil {
			t.Fatalf("accepted invalid master key %v", bad)
		}
	}
}

func TestPrivateKeyFromSecretDeterministic(t *testing.T) {
	rng := fixedRand(6)
	kgc, _ := Setup(rng)
	ppk := kgc.ExtractPartialPrivateKey("alice")
	sk, err := GenerateKeyPair(kgc.Params(), ppk, rng)
	if err != nil {
		t.Fatal(err)
	}
	sk2, err := NewPrivateKeyFromSecret(kgc.Params(), ppk, sk.SecretValue())
	if err != nil {
		t.Fatal(err)
	}
	if !sk2.Public().PID.Equal(sk.Public().PID) {
		t.Fatal("rebuilt key has different public key")
	}
	msg := []byte("m")
	sig, err := Sign(kgc.Params(), sk2, msg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewVerifier(kgc.Params()).Verify(sk.Public(), msg, sig); err != nil {
		t.Fatal("signature from rebuilt key rejected")
	}
	if _, err := NewPrivateKeyFromSecret(kgc.Params(), ppk, big.NewInt(0)); err == nil {
		t.Fatal("accepted zero secret value")
	}
}

func TestSignatureMarshalRoundTrip(t *testing.T) {
	kgc, sk, vf := newTestSystem(t, "alice")
	msg := []byte("serialize me")
	sig, err := Sign(kgc.Params(), sk, msg, fixedRand(8))
	if err != nil {
		t.Fatal(err)
	}
	enc := sig.Marshal()
	if len(enc) != SignatureSize {
		t.Fatalf("marshalled size %d, want %d", len(enc), SignatureSize)
	}
	dec, err := UnmarshalSignature(enc)
	if err != nil {
		t.Fatal(err)
	}
	if err := vf.Verify(sk.Public(), msg, dec); err != nil {
		t.Fatalf("decoded signature rejected: %v", err)
	}
	// Truncation, corruption, zero V.
	if _, err := UnmarshalSignature(enc[:len(enc)-1]); err == nil {
		t.Fatal("accepted truncated signature")
	}
	bad := bytes.Clone(enc)
	for i := range bad[:32] {
		bad[i] = 0
	}
	if _, err := UnmarshalSignature(bad); err == nil {
		t.Fatal("accepted zero V")
	}
	// V = r and V = 2^256 - 1: the out-of-range values checkShape can no
	// longer be handed, since fr.Element holds only canonical residues.
	bn254.Order.FillBytes(bad[:32])
	if _, err := UnmarshalSignature(bad); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("V = r: got %v", err)
	}
	copy(bad, bytes.Repeat([]byte{0xff}, 32))
	if _, err := UnmarshalSignature(bad); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("V = 2^256-1: got %v", err)
	}
	bad = bytes.Clone(enc)
	bad[40] ^= 0xFF // corrupt S
	if _, err := UnmarshalSignature(bad); err == nil {
		t.Fatal("accepted corrupted S encoding")
	}
}

func TestPublicKeyAndParamsMarshal(t *testing.T) {
	kgc, sk, _ := newTestSystem(t, "alice")
	pk2, err := UnmarshalPublicKey(sk.Public().Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if pk2.ID != "alice" || !pk2.PID.Equal(sk.Public().PID) {
		t.Fatal("public key round trip mismatch")
	}
	params2, err := UnmarshalParams(kgc.Params().Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !params2.Ppub.Equal(kgc.Params().Ppub) {
		t.Fatal("params round trip mismatch")
	}
	if _, err := UnmarshalParams(make([]byte, paramsMarshalledSize)); err == nil {
		t.Fatal("accepted identity P_pub")
	}
	if _, err := UnmarshalPublicKey([]byte{1}); err == nil {
		t.Fatal("accepted truncated public key")
	}
}

// TestNewPublicKeyMatchesUnmarshal: the bare P_ID decode and the
// length-prefixed one are the same decode — equal keys for a valid point,
// ErrInvalidKey for the identity, an off-curve point and short input.
func TestNewPublicKeyMatchesUnmarshal(t *testing.T) {
	_, sk, _ := newTestSystem(t, "alice")
	pk := sk.Public()
	offCurve := pk.PID.Marshal()
	offCurve[63] ^= 1
	for _, tc := range []struct {
		name  string
		pid   []byte
		valid bool
	}{
		{"valid", pk.PID.Marshal(), true},
		{"identity", make([]byte, 64), false},
		{"off curve", offCurve, false},
		{"short", pk.PID.Marshal()[:63], false},
	} {
		bare, errBare := NewPublicKey(pk.ID, tc.pid)
		prefixed, errPrefixed := UnmarshalPublicKey(append(appendLengthPrefixed(nil, []byte(pk.ID)), tc.pid...))
		if !tc.valid {
			if !errors.Is(errBare, ErrInvalidKey) || !errors.Is(errPrefixed, ErrInvalidKey) {
				t.Errorf("%s: NewPublicKey %v, UnmarshalPublicKey %v; want ErrInvalidKey from both", tc.name, errBare, errPrefixed)
			}
			continue
		}
		if errBare != nil || errPrefixed != nil {
			t.Fatalf("%s: NewPublicKey %v, UnmarshalPublicKey %v", tc.name, errBare, errPrefixed)
		}
		if bare.ID != prefixed.ID || !bare.PID.Equal(prefixed.PID) || !bytes.Equal(bare.Marshal(), pk.Marshal()) {
			t.Errorf("%s: NewPublicKey and UnmarshalPublicKey disagree", tc.name)
		}
	}
}

func TestPartialKeyMarshalRoundTrip(t *testing.T) {
	kgc, _, _ := newTestSystem(t, "alice")
	ppk := kgc.ExtractPartialPrivateKey("alice")
	dec, err := UnmarshalPartialPrivateKey(ppk.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if dec.ID != ppk.ID || !dec.D.Equal(ppk.D) {
		t.Fatal("partial key round trip mismatch")
	}
	if err := dec.Validate(kgc.Params()); err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalPartialPrivateKey([]byte{0, 0}); err == nil {
		t.Fatal("accepted truncated partial key")
	}
}

func TestVerifySameSigner(t *testing.T) {
	kgc, sk, vf := newTestSystem(t, "sensor-17")
	bv := vf.Batch(BatchOptions{})
	rng := fixedRand(30)
	const n = 5
	msgs := make([][]byte, n)
	sigs := make([]*Signature, n)
	for i := range msgs {
		msgs[i] = []byte{byte(i), byte(i * 3)}
		sig, err := Sign(kgc.Params(), sk, msgs[i], rng)
		if err != nil {
			t.Fatal(err)
		}
		sigs[i] = sig
	}
	if err := bv.VerifySameSigner(sk.Public(), msgs, sigs); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	// One tampered message must fail the whole batch.
	tampered := bytes.Clone(msgs[2])
	tampered[0] ^= 1
	badMsgs := append([][]byte{}, msgs...)
	badMsgs[2] = tampered
	if err := bv.VerifySameSigner(sk.Public(), badMsgs, sigs); !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("tampered batch accepted: %v", err)
	}
	// A foreign S is a group of its own and is named as the offender.
	other, err := GenerateKeyPair(kgc.Params(), kgc.ExtractPartialPrivateKey("sensor-18"), rng)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := Sign(kgc.Params(), other, msgs[0], rng)
	if err != nil {
		t.Fatal(err)
	}
	mixed := append([]*Signature{}, sigs...)
	mixed[0] = foreign
	err = bv.VerifySameSigner(sk.Public(), msgs, mixed)
	if !errors.Is(err, ErrVerifyFailed) || !slices.Equal(BatchOffenders(err), []int{0}) {
		t.Fatalf("batch with foreign S: %v", err)
	}
	// Malformed input is a shape error, wherever it sits in the window.
	nilFirst := append([]*Signature{nil}, sigs[1:]...)
	if err := bv.VerifySameSigner(sk.Public(), msgs, nilFirst); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("nil first signature: %v", err)
	}
	nilMiddle := append([]*Signature{}, sigs...)
	nilMiddle[2] = nil
	if err := bv.VerifySameSigner(sk.Public(), msgs, nilMiddle); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("nil middle signature: %v", err)
	}
	if err := bv.VerifySameSigner(nil, msgs, sigs); !errors.Is(err, ErrInvalidKey) {
		t.Fatalf("nil public key: %v", err)
	}
	// Length mismatch and empty batch.
	if err := bv.VerifySameSigner(sk.Public(), msgs[:2], sigs); !errors.Is(err, ErrBatchMismatch) {
		t.Fatal("length mismatch not detected")
	}
	if err := bv.VerifySameSigner(sk.Public(), nil, nil); err != nil {
		t.Fatal("empty batch should verify")
	}
}

func TestVerifierCache(t *testing.T) {
	kgc, sk, vf := newTestSystem(t, "alice")
	if vf.signers.Len() != 0 {
		t.Fatal("fresh verifier has cached entries")
	}
	msg := []byte("m")
	sig, err := Sign(kgc.Params(), sk, msg, fixedRand(40))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := vf.Verify(sk.Public(), msg, sig); err != nil {
			t.Fatal(err)
		}
	}
	if vf.signers.Len() != 1 {
		t.Fatalf("cache length %d, want 1", vf.signers.Len())
	}
}

func TestVerifyShapeErrors(t *testing.T) {
	kgc, sk, vf := newTestSystem(t, "alice")
	msg := []byte("m")
	sig, err := Sign(kgc.Params(), sk, msg, fixedRand(41))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		pk   *PublicKey
		sig  *Signature
	}{
		{"nil signature", sk.Public(), nil},
		{"zero V", sk.Public(), &Signature{S: sig.S, R: sig.R}},
		{"identity S", sk.Public(), &Signature{V: sig.V, S: bn254.G2Infinity(), R: sig.R}},
		{"nil pk", nil, sig},
		{"identity PID", &PublicKey{ID: "alice", PID: bn254.G1Infinity()}, sig},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := vf.Verify(tc.pk, msg, tc.sig); err == nil {
				t.Fatal("shape-invalid input accepted")
			}
		})
	}
	_ = kgc
}

func TestVerifyMulti(t *testing.T) {
	rng := fixedRand(50)
	kgc, err := Setup(rng)
	if err != nil {
		t.Fatal(err)
	}
	bv := NewVerifier(kgc.Params()).Batch(BatchOptions{})
	const n = 4
	pks := make([]*PublicKey, n)
	msgs := make([][]byte, n)
	sigs := make([]*Signature, n)
	for i := 0; i < n; i++ {
		id := string(rune('a' + i))
		sk, err := GenerateKeyPair(kgc.Params(), kgc.ExtractPartialPrivateKey(id), rng)
		if err != nil {
			t.Fatal(err)
		}
		pks[i] = sk.Public()
		msgs[i] = []byte{byte(i), byte(i * 7)}
		if sigs[i], err = Sign(kgc.Params(), sk, msgs[i], rng); err != nil {
			t.Fatal(err)
		}
	}
	if err := bv.VerifyMulti(pks, msgs, sigs); err != nil {
		t.Fatalf("valid multi-signer batch rejected: %v", err)
	}
	// One tampered message fails the batch.
	bad := append([][]byte{}, msgs...)
	bad[2] = []byte("tampered")
	if err := bv.VerifyMulti(pks, bad, sigs); !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("tampered multi batch accepted: %v", err)
	}
	// Swapped signatures between signers fail.
	swapped := append([]*Signature{}, sigs...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if err := bv.VerifyMulti(pks, msgs, swapped); err == nil {
		t.Fatal("swapped signatures accepted")
	}
	// Malformed input is a shape error, wherever it sits in the window.
	nilFirst := append([]*Signature{nil}, sigs[1:]...)
	if err := bv.VerifyMulti(pks, msgs, nilFirst); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("nil first signature: %v", err)
	}
	nilMiddle := append([]*Signature{}, sigs...)
	nilMiddle[2] = nil
	if err := bv.VerifyMulti(pks, msgs, nilMiddle); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("nil middle signature: %v", err)
	}
	nilPK := append([]*PublicKey{}, pks...)
	nilPK[1] = nil
	if err := bv.VerifyMulti(nilPK, msgs, sigs); !errors.Is(err, ErrInvalidKey) {
		t.Fatalf("nil public key: %v", err)
	}
	// Length mismatch and empty batch.
	if err := bv.VerifyMulti(pks[:1], msgs, sigs); !errors.Is(err, ErrBatchMismatch) {
		t.Fatal("length mismatch not detected")
	}
	if err := bv.VerifyMulti(nil, nil, nil); err != nil {
		t.Fatal("empty batch should verify")
	}
}

func FuzzUnmarshalSignature(f *testing.F) {
	rng := fixedRand(61)
	kgc, err := Setup(rng)
	if err != nil {
		f.Fatal(err)
	}
	sk, err := GenerateKeyPair(kgc.Params(), kgc.ExtractPartialPrivateKey("fz"), rng)
	if err != nil {
		f.Fatal(err)
	}
	sig, err := Sign(kgc.Params(), sk, []byte("seed"), rng)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sig.Marshal())
	f.Add((&Signature{V: sig.V, S: offSubgroupG2(f), R: sig.R}).Marshal()) // accepted: Verify checks S
	f.Add(make([]byte, SignatureSize))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := UnmarshalSignature(data)
		if err != nil {
			return
		}
		// Anything accepted must re-marshal identically.
		if string(dec.Marshal()) != string(data) {
			t.Fatal("non-canonical signature encoding accepted")
		}
	})
}

func FuzzUnmarshalPublicKey(f *testing.F) {
	rng := fixedRand(62)
	kgc, err := Setup(rng)
	if err != nil {
		f.Fatal(err)
	}
	sk, err := GenerateKeyPair(kgc.Params(), kgc.ExtractPartialPrivateKey("fz"), rng)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sk.Public().Marshal())
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		pk, err := UnmarshalPublicKey(data)
		if err != nil {
			return
		}
		if string(pk.Marshal()) != string(data) {
			t.Fatal("non-canonical public key encoding accepted")
		}
	})
}

// scriptedRand serves predetermined 32-byte scalar draws to Sign, tracking
// how many bytes were consumed. crypto/rand.Int reads exactly 32 bytes per
// draw for the 254-bit group order.
type scriptedRand struct {
	data []byte
	off  int
}

func (s *scriptedRand) Read(p []byte) (int, error) {
	n := copy(p, s.data[s.off:])
	s.off += n
	if n == 0 {
		return 0, errors.New("scripted randomness exhausted")
	}
	return n, nil
}

// TestSignRedrawsWhenROverlapsSecret forces the r == x collision (which
// would make R the identity and leak x) and checks that Sign redraws
// instead of emitting a degenerate signature. The redraw path is a loop,
// so even an adversarial RNG that keeps returning x cannot overflow the
// stack — it just keeps the loop spinning until the stream moves on.
func TestSignRedrawsWhenROverlapsSecret(t *testing.T) {
	kgc, err := Setup(fixedRand(9))
	if err != nil {
		t.Fatal(err)
	}
	const id = "redraw@manet"
	x := big.NewInt(5)
	sk, err := NewPrivateKeyFromSecret(kgc.Params(), kgc.ExtractPartialPrivateKey(id), x)
	if err != nil {
		t.Fatal(err)
	}

	// First draw r = x = 5 (collision), second draw r = 7 (accepted).
	script := make([]byte, 64)
	big.NewInt(5).FillBytes(script[:32])
	big.NewInt(7).FillBytes(script[32:])
	rng := &scriptedRand{data: script}

	msg := []byte("RREP via redraw")
	sig, err := Sign(kgc.Params(), sk, msg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rng.off != 64 {
		t.Fatalf("expected exactly two scalar draws (64 bytes), consumed %d", rng.off)
	}
	// With r = 7 and x = 5, R = (r-x)·P = 2·P.
	want := new(bn254.G1).ScalarBaseMult(big.NewInt(2))
	if !sig.R.Equal(want) {
		t.Fatal("redraw produced an unexpected commitment")
	}
	if sig.R.IsInfinity() {
		t.Fatal("identity commitment leaked through the redraw guard")
	}
	if err := NewVerifier(kgc.Params()).Verify(sk.Public(), msg, sig); err != nil {
		t.Fatalf("redrawn signature rejected: %v", err)
	}
}

// TestPassiveObserverForgesSignature pins a KNOWN BREAK of McCLS as
// published, so a refactor cannot silently change it: the test passes when
// the forgery verifies. S = x⁻¹·D_ID is message-independent and shipped in
// every signature, and one honest (V, S, R) on M reveals X = x·P =
// (V·h⁻¹)·P − R. With those two the observer signs any M' — pick t, set
// R' = t·P − X, h' = H2(M', R', P_ID), V' = h'·t, reuse S — without a
// private key, a KGC query or a key replacement: the verifier computes
// (V'·h'⁻¹)·P − R' = X and e(X, S) = e(P_pub, Q_ID) as for an honest tag.
// See DESIGN.md §8; the game harness over the other schemes is ROADMAP
// item 4.
func TestPassiveObserverForgesSignature(t *testing.T) {
	kgc, sk, vf := newTestSystem(t, "victim@manet")
	params, pk := kgc.Params(), sk.Public()
	msg := []byte("RREQ 7 from victim")
	seen, err := Sign(params, sk, msg, fixedRand(2))
	if err != nil {
		t.Fatal(err)
	}

	// Everything below uses only what a neighbour overhears: params, pk,
	// msg and seen.
	k, err := params.vOverH(pk, msg, seen)
	if err != nil {
		t.Fatal(err)
	}
	X := new(bn254.G1).ScalarBaseMultAddFr(&k, new(bn254.G1).Neg(seen.R))

	forgedMsg := []byte("RREP: route to anywhere via the observer")
	tt, err := fr.Random(fixedRand(3))
	if err != nil {
		t.Fatal(err)
	}
	R := new(bn254.G1).ScalarBaseMultAddFr(&tt, new(bn254.G1).Neg(X))
	h := params.hashH2(forgedMsg, R, pk.PID)
	forged := &Signature{V: *h.Mul(&h, &tt), S: seen.S, R: R}

	if bytes.Equal(forgedMsg, msg) || forged.R.Equal(seen.R) {
		t.Fatal("forgery is a replay, not a fresh signature")
	}
	if err := vf.Verify(pk, forgedMsg, forged); err != nil {
		t.Fatalf("known break no longer reproduces: forged signature rejected: %v", err)
	}
	decoded, err := UnmarshalSignature(forged.Marshal())
	if err != nil {
		t.Fatalf("forged tag rejected by the wire decoder: %v", err)
	}
	if err := vf.Verify(pk, forgedMsg, decoded); err != nil {
		t.Fatalf("forged tag rejected after a wire round trip: %v", err)
	}
}

// TestAcceptedAIsSignatureInvariant pins the fact the batch engine's
// accepted pairs rest on: an honest key's A = (V/h)·P − R is x·P in every
// signature, whatever the message and nonce, so Verify stores one (S, A) per
// key, replaces it once, when the pair's second sighting gives it S's line
// table, and keeps it from then on. The passive observer's forgery above
// carries that same pair, so it is settled too: a window over it and a
// later honest signature runs no pairing on a verifier that holds the pair,
// and a fresh verifier accepts the same window with one Verify.
func TestAcceptedAIsSignatureInvariant(t *testing.T) {
	kgc, sk, vf := newTestSystem(t, "victim@manet")
	params, pk := kgc.Params(), sk.Public()
	xP := new(bn254.G1).ScalarBaseMultAddFr(&sk.x, nil)
	msgs := [][]byte{[]byte("RREQ 7 from victim"), []byte("RREP 8 from victim")}
	sigs := make([]*Signature, len(msgs))
	for i, msg := range msgs {
		var err error
		if sigs[i], err = Sign(params, sk, msg, fixedRand(int64(2+i))); err != nil {
			t.Fatal(err)
		}
		if a := commitment(params, pk, msg, sigs[i]); !a.Equal(xP) {
			t.Fatalf("signature %d: A is not x·P", i)
		}
	}
	if sigs[0].R.Equal(sigs[1].R) {
		t.Fatal("two signatures share a nonce")
	}
	if err := vf.Verify(pk, msgs[0], sigs[0]); err != nil {
		t.Fatal(err)
	}
	r, _ := vf.signers.Get(pk.ID)
	pair := r.ok.Load()
	if pair == nil || !pair.s.Equal(sigs[0].S) || !pair.a.Equal(xP) {
		t.Fatal("Verify did not store the accepted (S, x·P)")
	}
	if err := vf.Verify(pk, msgs[1], sigs[1]); err != nil {
		t.Fatal(err)
	}
	tabled := r.ok.Load()
	if tabled == pair || tabled.lines == nil || !tabled.s.Equal(&pair.s) || !tabled.a.Equal(&pair.a) {
		t.Fatal("a second honest signature did not give the accepted pair its table")
	}
	for i := range 2 {
		if err := vf.Verify(pk, msgs[i], sigs[i]); err != nil || r.ok.Load() != tabled {
			t.Fatalf("honest signature %d replaced the accepted pair with its table (%v)", i, err)
		}
	}

	// The forgery of TestPassiveObserverForgesSignature, from sigs[0] alone.
	k, err := params.vOverH(pk, msgs[0], sigs[0])
	if err != nil {
		t.Fatal(err)
	}
	X := new(bn254.G1).ScalarBaseMultAddFr(&k, new(bn254.G1).Neg(sigs[0].R))
	forgedMsg := []byte("RREP: route to anywhere via the observer")
	tt, err := fr.Random(fixedRand(9))
	if err != nil {
		t.Fatal(err)
	}
	R := new(bn254.G1).ScalarBaseMultAddFr(&tt, new(bn254.G1).Neg(X))
	h := params.hashH2(forgedMsg, R, pk.PID)
	forged := &Signature{V: *h.Mul(&h, &tt), S: sigs[0].S, R: R}
	if a := commitment(params, pk, forgedMsg, forged); !a.Equal(&pair.a) {
		t.Fatal("the forgery's A is not the accepted one")
	}

	pks, wm, ws := []*PublicKey{pk, pk}, [][]byte{msgs[1], forgedMsg}, []*Signature{sigs[1], forged}
	before := bn254.ReadOpCounts()
	err = vf.Batch(BatchOptions{}).VerifyMulti(pks, wm, ws)
	if d := bn254.ReadOpCounts().Sub(before); err != nil || d.Pairings != 0 || d.FinalExps != 0 {
		t.Fatalf("window over the accepted pair: %v, %d pairs and %d final exps; want nil, 0 and 0", err, d.Pairings, d.FinalExps)
	}
	fresh := NewVerifier(params)
	before = bn254.ReadOpCounts()
	err = fresh.Batch(BatchOptions{}).VerifyMulti(pks, wm, ws)
	if d := bn254.ReadOpCounts().Sub(before); err != nil || d.FinalExps != 1 {
		t.Fatalf("a fresh verifier over the same window: %v, %d final exps; want nil and 1", err, d.FinalExps)
	}
}
