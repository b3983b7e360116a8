package threshold

import (
	"bytes"
	"math/big"
	mrand "math/rand"
	"testing"

	"mccls/internal/bn254"
	"mccls/internal/core"
)

// detRNG returns a deterministic byte stream for Split.
func detRNG(seed int64) *mrand.Rand { return mrand.New(mrand.NewSource(seed)) }

func TestSplitReconstruct(t *testing.T) {
	secret := big.NewInt(424242)
	for _, tc := range []struct{ t, n int }{{1, 1}, {1, 4}, {2, 3}, {3, 5}, {7, 7}} {
		shares, err := Split(secret, tc.t, tc.n, detRNG(1))
		if err != nil {
			t.Fatalf("split %d-of-%d: %v", tc.t, tc.n, err)
		}
		if len(shares) != tc.n {
			t.Fatalf("split %d-of-%d: got %d shares", tc.t, tc.n, len(shares))
		}
		// Any t consecutive shares reconstruct.
		for start := 0; start+tc.t <= tc.n; start++ {
			got, err := Reconstruct(shares[start : start+tc.t])
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(secret) != 0 {
				t.Fatalf("%d-of-%d reconstruct from [%d:%d] = %v, want %v",
					tc.t, tc.n, start, start+tc.t, got, secret)
			}
		}
	}
}

func TestSplitRejectsBadShape(t *testing.T) {
	secret := big.NewInt(7)
	for _, tc := range []struct{ t, n int }{{0, 3}, {4, 3}, {-1, 2}, {1, MaxShares + 1}} {
		if _, err := Split(secret, tc.t, tc.n, detRNG(1)); err == nil {
			t.Errorf("split %d-of-%d: want error", tc.t, tc.n)
		}
	}
	if _, err := Split(big.NewInt(0), 2, 3, detRNG(1)); err == nil {
		t.Error("split of zero secret: want error")
	}
	if _, err := Split(new(big.Int).Set(bn254.Order), 2, 3, detRNG(1)); err == nil {
		t.Error("split of out-of-range secret: want error")
	}
}

func TestReconstructRejectsDuplicates(t *testing.T) {
	shares, err := Split(big.NewInt(99), 2, 3, detRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Reconstruct([]*Share{shares[0], shares[0]}); err == nil {
		t.Error("duplicate indices: want error")
	}
	if _, err := Reconstruct(nil); err == nil {
		t.Error("no shares: want error")
	}
}

func TestShareMarshalRoundTrip(t *testing.T) {
	shares, err := Split(big.NewInt(123456789), 3, 4, detRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shares {
		got, err := UnmarshalShare(s.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if got.Index != s.Index || got.Value != s.Value {
			t.Fatalf("round trip changed share %d", s.Index)
		}
	}
	if _, err := UnmarshalShare([]byte{1, 2, 3}); err == nil {
		t.Error("short buffer: want error")
	}
	bad := shares[0].Marshal()
	bad[0] = 0
	if _, err := UnmarshalShare(bad); err == nil {
		t.Error("index zero: want error")
	}
}

// hashToScalar derives a deterministic test master secret.
func hashToScalar(domain string, msg []byte) *big.Int {
	k := bn254.HashToFr(domain, msg)
	return k.BigInt()
}

// newThresholdKGC splits a fresh deterministic master and returns the
// single-master oracle plus per-share signers.
func newThresholdKGC(t testing.TB, tt, n int, seed int64) (*core.KGC, []*Signer) {
	t.Helper()
	master := hashToScalar("threshold/test", []byte{byte(seed)})
	kgc, err := core.NewKGCFromMaster(master)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := Split(master, tt, n, detRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	signers := make([]*Signer, n)
	for i, sh := range shares {
		if signers[i], err = NewSigner(kgc.Params(), sh); err != nil {
			t.Fatal(err)
		}
	}
	return kgc, signers
}

func TestCombineMatchesSingleMaster(t *testing.T) {
	kgc, signers := newThresholdKGC(t, 2, 3, 7)
	const id = "pump-station-9"
	want := kgc.ExtractPartialPrivateKey(id)

	// Every 2-subset of the 3 signers combines to the same key.
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			ks := []*KeyShare{signers[i].Issue(id), signers[j].Issue(id)}
			got, err := Combine(id, ks)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Marshal(), want.Marshal()) {
				t.Fatalf("combine {%d,%d} differs from single master", i, j)
			}
			if err := got.Validate(kgc.Params()); err != nil {
				t.Fatalf("combined key fails validation: %v", err)
			}
		}
	}
}

// TestIssueMatchesExactHash pins every holder's key share to s_j·H1(ID)
// with the exact hash (c′ is folded into the share scalar), at two
// G2ScalarMults an issuance: the short clearing and the one multiplication.
func TestIssueMatchesExactHash(t *testing.T) {
	_, signers := newThresholdKGC(t, 2, 3, 9)
	for _, id := range []string{"pump-station-9", "valve-3", ""} {
		q := bn254.HashToG2("mccls/v1/H1", []byte(id))
		for _, s := range signers {
			before := bn254.ReadOpCounts()
			ks := s.Issue(id)
			if d := bn254.ReadOpCounts().Sub(before); d.G2ScalarMults != 2 {
				t.Errorf("share %d: Issue ran %d G2 multiplications, want 2", s.Index(), d.G2ScalarMults)
			}
			want := new(bn254.G2).ScalarMultFr(q, &s.share.Value)
			if ks.ID != id || ks.Index != s.Index() || !bytes.Equal(ks.D.Marshal(), want.Marshal()) {
				t.Fatalf("share %d: Issue(%q) = %v, want s_j·H1(ID) = %v", s.Index(), id, ks.D, want)
			}
		}
	}
}

// TestCombineOpCount pins Combine of t key shares at exactly t
// G2ScalarMults, one per share fed to the joint walk, and at the
// single-master key, for quorums on both sides of the walk's four-point
// slice and of two slices. The benchmark's bn254.g2_mults_per_cold_enroll
// reads this count.
func TestCombineOpCount(t *testing.T) {
	const id = "valve-3"
	for _, tt := range []int{1, 2, 3, 4, 5, 8, 9} {
		kgc, signers := newThresholdKGC(t, tt, tt, int64(20+tt))
		ks := make([]*KeyShare, tt)
		for i, s := range signers {
			ks[i] = s.Issue(id)
		}
		before := bn254.ReadOpCounts()
		got, err := Combine(id, ks)
		if err != nil {
			t.Fatal(err)
		}
		if d := bn254.ReadOpCounts().Sub(before); d.G2ScalarMults != uint64(tt) {
			t.Errorf("%d-of-%d combine ran %d G2 multiplications, want %d", tt, tt, d.G2ScalarMults, tt)
		}
		if !bytes.Equal(got.Marshal(), kgc.ExtractPartialPrivateKey(id).Marshal()) {
			t.Errorf("%d-of-%d combine differs from single master", tt, tt)
		}
	}
}

func TestCombineRejectsMismatchedIdentity(t *testing.T) {
	_, signers := newThresholdKGC(t, 2, 2, 8)
	ks := []*KeyShare{signers[0].Issue("alice"), signers[1].Issue("bob")}
	if _, err := Combine("alice", ks); err == nil {
		t.Error("mismatched identities: want error")
	}
	if _, err := Combine("alice", nil); err == nil {
		t.Error("no shares: want error")
	}
}

func TestKeyShareMarshalRoundTrip(t *testing.T) {
	_, signers := newThresholdKGC(t, 2, 2, 9)
	ks := signers[1].Issue("alice")
	got, err := UnmarshalKeyShare("alice", ks.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != ks.Index || !got.D.Equal(ks.D) {
		t.Fatal("round trip changed key share")
	}
	if _, err := UnmarshalKeyShare("alice", []byte{1}); err == nil {
		t.Error("short buffer: want error")
	}
	raw := ks.Marshal()
	raw[0] = 0
	if _, err := UnmarshalKeyShare("alice", raw); err == nil {
		t.Error("index zero: want error")
	}
	raw = ks.Marshal()
	raw[5] ^= 1
	if _, err := UnmarshalKeyShare("alice", raw); err == nil {
		t.Error("corrupted point: want error")
	}
}

// FuzzThresholdVsSingleMaster pins the threshold issuance path to the
// single-master oracle: for random identities and random t-of-n shapes
// (t ≥ 1, n ≤ 7), combining any t key shares must be byte-identical to
// ExtractPartialPrivateKey, and any t−1 shares must fail to produce a key
// that passes partial-key validation.
func FuzzThresholdVsSingleMaster(f *testing.F) {
	f.Add([]byte("node-1"), uint8(2), uint8(3), int64(1))
	f.Add([]byte(""), uint8(1), uint8(1), int64(2))
	f.Add([]byte("sensor/7"), uint8(7), uint8(7), int64(3))
	f.Add([]byte("x"), uint8(3), uint8(200), int64(4))
	f.Fuzz(func(t *testing.T, idBytes []byte, tRaw, nRaw uint8, seed int64) {
		const maxN = 7
		tt := 1 + int(tRaw)%maxN        // t ∈ [1, 7]
		n := tt + int(nRaw)%(maxN-tt+1) // n ∈ [t, 7]
		id := string(idBytes)
		rng := detRNG(seed)

		master := hashToScalar("threshold/fuzz", append([]byte{byte(seed)}, idBytes...))
		kgc, err := core.NewKGCFromMaster(master)
		if err != nil {
			t.Fatal(err)
		}
		shares, err := Split(master, tt, n, rng)
		if err != nil {
			t.Fatal(err)
		}

		// A random t-subset of the n shares.
		perm := rng.Perm(n)[:tt]
		subset := make([]*KeyShare, tt)
		scalarSubset := make([]*Share, tt)
		for i, idx := range perm {
			signer, err := NewSigner(kgc.Params(), shares[idx])
			if err != nil {
				t.Fatal(err)
			}
			subset[i] = signer.Issue(id)
			scalarSubset[i] = shares[idx]
		}

		want := kgc.ExtractPartialPrivateKey(id)
		got, err := Combine(id, subset)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("%d-of-%d combine differs from single master for id %q", tt, n, id)
		}
		if err := got.Validate(kgc.Params()); err != nil {
			t.Fatalf("combined key fails validation: %v", err)
		}
		if rec, err := Reconstruct(scalarSubset); err != nil || rec.Cmp(master) != 0 {
			t.Fatalf("scalar reconstruct mismatch (err=%v)", err)
		}

		// t−1 shares must not yield a validating key. For t = 1 that means
		// zero shares, which Combine rejects outright.
		if tt == 1 {
			if _, err := Combine(id, nil); err == nil {
				t.Fatal("combine of zero shares: want error")
			}
			return
		}
		under, err := Combine(id, subset[:tt-1])
		if err != nil {
			t.Fatalf("combine of t-1 shares should form a (wrong) element: %v", err)
		}
		if bytes.Equal(under.Marshal(), want.Marshal()) {
			t.Fatalf("t-1 shares reproduced the partial key (t=%d, n=%d)", tt, n)
		}
		if err := under.Validate(kgc.Params()); err == nil {
			t.Fatalf("t-1-share key passed validation (t=%d, n=%d)", tt, n)
		}
	})
}

// FuzzShareCodecs: the three wire decoders reject or round-trip, never
// panic. Arbitrary bytes go to UnmarshalShare and UnmarshalDelta (37 bytes
// each: index‖epoch‖scalar) and to UnmarshalKeyShare (133: index‖epoch‖G2);
// whatever one of them accepts must re-marshal to exactly the input, so no
// two byte strings decode to the same value.
func FuzzShareCodecs(f *testing.F) {
	master := hashToScalar("threshold/fuzz", []byte("codecs"))
	kgc, err := core.NewKGCFromMaster(master)
	if err != nil {
		f.Fatal(err)
	}
	shares, err := Split(master, 2, 3, detRNG(1))
	if err != nil {
		f.Fatal(err)
	}
	deltas, err := RefreshDeltas(2, 3, 1, detRNG(2))
	if err != nil {
		f.Fatal(err)
	}
	signer, err := NewSigner(kgc.Params(), shares[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(shares[0].Marshal())
	f.Add(deltas[1].Marshal())
	f.Add(signer.Issue("node-1").Marshal())
	f.Add(make([]byte, shareMarshalledSize))
	f.Add(bytes.Repeat([]byte{0xff}, keyShareMarshalledSize))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := UnmarshalShare(data); err == nil && !bytes.Equal(s.Marshal(), data) {
			t.Fatalf("share %x re-marshals to %x", data, s.Marshal())
		}
		if d, err := UnmarshalDelta(data); err == nil && !bytes.Equal(d.Marshal(), data) {
			t.Fatalf("delta %x re-marshals to %x", data, d.Marshal())
		}
		if ks, err := UnmarshalKeyShare("node-1", data); err == nil && !bytes.Equal(ks.Marshal(), data) {
			t.Fatalf("key share %x re-marshals to %x", data, ks.Marshal())
		}
	})
}
