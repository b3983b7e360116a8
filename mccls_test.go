package mccls_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"mccls"
	"mccls/manet"
)

// TestPublicAPIEndToEnd exercises the documented façade exactly as the
// README shows it, including persistence of the master key and secret
// value.
func TestPublicAPIEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kgc, err := mccls.Setup(rng)
	if err != nil {
		t.Fatal(err)
	}
	ppk := kgc.ExtractPartialPrivateKey("node-17@plant")
	sk, err := mccls.GenerateKeyPair(kgc.Params(), ppk, rng)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("msg")
	sig, err := mccls.Sign(kgc.Params(), sk, msg, rng)
	if err != nil {
		t.Fatal(err)
	}
	vf := mccls.NewVerifier(kgc.Params())
	if err := vf.Verify(sk.Public(), msg, sig); err != nil {
		t.Fatal(err)
	}
	if err := vf.Verify(sk.Public(), []byte("other"), sig); !errors.Is(err, mccls.ErrVerifyFailed) {
		t.Fatalf("want ErrVerifyFailed, got %v", err)
	}

	// Serialization round trips through the exported helpers.
	params2, err := mccls.UnmarshalParams(kgc.Params().Marshal())
	if err != nil {
		t.Fatal(err)
	}
	pk2, err := mccls.UnmarshalPublicKey(sk.Public().Marshal())
	if err != nil {
		t.Fatal(err)
	}
	sig2, err := mccls.UnmarshalSignature(sig.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(sig.Marshal()) != mccls.SignatureSize {
		t.Fatal("SignatureSize constant wrong")
	}
	if err := mccls.NewVerifier(params2).Verify(pk2, msg, sig2); err != nil {
		t.Fatal(err)
	}

	// KGC and user key persistence.
	kgc2, err := mccls.NewKGCFromMaster(kgc.MasterKey())
	if err != nil {
		t.Fatal(err)
	}
	sk2, err := mccls.NewPrivateKeyFromSecret(kgc2.Params(), ppk, sk.SecretValue())
	if err != nil {
		t.Fatal(err)
	}
	sig3, err := mccls.Sign(kgc2.Params(), sk2, msg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := vf.Verify(sk.Public(), msg, sig3); err != nil {
		t.Fatal(err)
	}

	// The batch surface: one engine from Verifier.Batch, offenders by index.
	var bv *mccls.BatchVerifier = vf.Batch(mccls.BatchOptions{})
	pks := []*mccls.PublicKey{sk.Public(), sk.Public()}
	sigs := []*mccls.Signature{sig, sig3}
	if err := bv.VerifyMulti(pks, [][]byte{msg, msg}, sigs); err != nil {
		t.Fatal(err)
	}
	err = bv.VerifyMulti(pks, [][]byte{msg, []byte("other")}, sigs)
	if !errors.Is(err, mccls.ErrVerifyFailed) || !slices.Equal(mccls.BatchOffenders(err), []int{1}) {
		t.Fatalf("tampered window: %v, offenders %v", err, mccls.BatchOffenders(err))
	}
}

// TestSignVerifyProperty is a property-based check over arbitrary message
// bytes and identities: every honestly-produced signature verifies, and no
// signature verifies under a flipped message.
func TestSignVerifyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	kgc, err := mccls.Setup(rng)
	if err != nil {
		t.Fatal(err)
	}
	vf := mccls.NewVerifier(kgc.Params())
	sk, err := mccls.GenerateKeyPair(kgc.Params(), kgc.ExtractPartialPrivateKey("prop"), rng)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(msg []byte, flip byte) bool {
		sig, err := mccls.Sign(kgc.Params(), sk, msg, rng)
		if err != nil {
			return false
		}
		if vf.Verify(sk.Public(), msg, sig) != nil {
			return false
		}
		tampered := append([]byte{flip ^ 0xFF}, msg...)
		return vf.Verify(sk.Public(), tampered, sig) != nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 6, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestManetFacadeSmoke runs a short scenario through the public manet API.
func TestManetFacadeSmoke(t *testing.T) {
	res, err := manet.Scenario{
		Duration: 30 * time.Second,
		MaxSpeed: 5,
		Seed:     9,
		Security: manet.McCLS,
		Attack:   manet.Blackhole,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketDropRatio() != 0 {
		t.Fatalf("McCLS drop ratio %.3f via facade", res.PacketDropRatio())
	}
	if res.DataSent == 0 || res.PacketDeliveryRatio() < 0.9 {
		t.Fatalf("unhealthy facade run: %s", res.Headline())
	}
}

// TestManetTable1Facade regenerates a one-iteration Table 1 through the
// public API.
func TestManetTable1Facade(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four schemes with real pairings")
	}
	rows, err := manet.Table1(1, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[3].Scheme != "McCLS" {
		t.Fatalf("unexpected rows: %+v", rows)
	}
	if out := manet.RenderTable1(rows); len(out) == 0 {
		t.Fatal("empty rendering")
	}
}
