package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"mccls/internal/bn254"
)

// transcriptPin is the SHA-256 of a deterministic sign/verify transcript:
// KGC setup, key generation, 32 signatures and a pairing product, all
// driven from fixed seeds. The same test runs under the default build and
// `-tags purego`; both must reproduce this exact digest, which proves the
// assembly and generic field kernels are byte-identical end to end — not
// just equal modulo q, but producing the same canonical encodings on the
// wire. Regenerate (and scrutinize the diff that made it move) with:
//
//	go test ./internal/core -run TestSignTranscriptCrossKernel -v
//
// which logs the computed digest on mismatch.
const transcriptPin = "8ece5ed3057d4cb6a2db8fec3d10606d2ba1ca6e6163a4cec93acd8839630859"

func TestSignTranscriptCrossKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	kgc, err := Setup(rng)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(kgc.Params().Marshal())
	for id := 0; id < 4; id++ {
		sk, err := GenerateKeyPair(kgc.Params(),
			kgc.ExtractPartialPrivateKey(fmt.Sprintf("node-%d@manet", id)), rng)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(sk.Public().Marshal())
		vf := NewVerifier(kgc.Params())
		for i := 0; i < 8; i++ {
			msg := []byte(fmt.Sprintf("transcript %d/%d", id, i))
			sig, err := Sign(kgc.Params(), sk, msg, rng)
			if err != nil {
				t.Fatal(err)
			}
			if err := vf.Verify(sk.Public(), msg, sig); err != nil {
				t.Fatalf("verify %d/%d: %v", id, i, err)
			}
			h.Write(sig.Marshal())
		}
	}
	// Fold in a raw pairing output so the GT/Fp12 encoding (the part
	// Verify only compares, never emits) is pinned too.
	k1 := rand.New(rand.NewSource(5))
	s1, err := bn254.RandomScalar(k1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := bn254.RandomScalar(k1)
	if err != nil {
		t.Fatal(err)
	}
	g1 := new(bn254.G1).ScalarBaseMult(s1)
	g2 := new(bn254.G2).ScalarMult(bn254.G2Generator(), s2)
	h.Write(bn254.Pair(g1, g2).Marshal())

	got := hex.EncodeToString(h.Sum(nil))
	if got != transcriptPin {
		t.Errorf("transcript digest mismatch:\n got %s\nwant %s\n(kernel-dependent output or an intentional format change)", got, transcriptPin)
	}
}
