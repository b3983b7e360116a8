package threshold

import (
	"bytes"
	"errors"
	"math/big"
	"strings"
	"testing"

	"mccls/internal/core"
)

// refreshAll applies one refresh round to every share, asserting the epoch
// advanced uniformly.
func refreshAll(t *testing.T, shares []*Share, tt int, toEpoch uint32, seed int64) []*Share {
	t.Helper()
	deltas, err := RefreshDeltas(tt, len(shares), toEpoch, detRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*Share, len(shares))
	for i, s := range shares {
		if out[i], err = s.Refresh(deltas[i]); err != nil {
			t.Fatal(err)
		}
		if out[i].Epoch != toEpoch {
			t.Fatalf("share %d at epoch %d after refresh to %d", s.Index, out[i].Epoch, toEpoch)
		}
	}
	return out
}

func TestRefreshPreservesSecret(t *testing.T) {
	secret := big.NewInt(987654321)
	for _, tc := range []struct{ t, n int }{{1, 1}, {1, 3}, {2, 3}, {3, 5}, {7, 7}} {
		shares, err := Split(secret, tc.t, tc.n, detRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		// Three refresh rounds; the secret survives each and the values move
		// (for t > 1 — a 1-of-n refresh is numerically the identity).
		for epoch := uint32(1); epoch <= 3; epoch++ {
			prev := shares
			shares = refreshAll(t, shares, tc.t, epoch, int64(epoch)*31)
			if tc.t > 1 {
				moved := false
				for i := range shares {
					if shares[i].Value != prev[i].Value {
						moved = true
					}
				}
				if !moved {
					t.Fatalf("%d-of-%d refresh to epoch %d left every share unchanged", tc.t, tc.n, epoch)
				}
			}
			for start := 0; start+tc.t <= tc.n; start++ {
				got, err := Reconstruct(shares[start : start+tc.t])
				if err != nil {
					t.Fatal(err)
				}
				if got.Cmp(secret) != 0 {
					t.Fatalf("%d-of-%d epoch %d: reconstruct = %v, want %v", tc.t, tc.n, epoch, got, secret)
				}
			}
		}
	}
}

func TestReconstructRejectsMixedEpochs(t *testing.T) {
	shares, err := Split(big.NewInt(55), 2, 3, detRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	refreshed := refreshAll(t, shares, 2, 1, 7)
	_, err = Reconstruct([]*Share{shares[0], refreshed[1]})
	if !errors.Is(err, ErrMixedEpochs) {
		t.Fatalf("mixed-epoch reconstruct: got %v, want ErrMixedEpochs", err)
	}
}

func TestCombineRejectsMixedEpochs(t *testing.T) {
	kgc, signers := newThresholdKGC(t, 2, 3, 21)
	const id = "valve-17"
	stale := signers[0].Issue(id) // epoch 0

	deltas, err := RefreshDeltas(2, 3, 1, detRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range signers {
		if _, err := s.ApplyRefresh(deltas[i]); err != nil {
			t.Fatal(err)
		}
		if s.Epoch() != 1 {
			t.Fatalf("signer %d at epoch %d after refresh", i, s.Epoch())
		}
	}

	fresh := signers[1].Issue(id) // epoch 1
	if _, err := Combine(id, []*KeyShare{stale, fresh}); !errors.Is(err, ErrMixedEpochs) {
		t.Fatalf("mixed-epoch combine: got %v, want ErrMixedEpochs", err)
	}

	// Same-epoch shares still combine to the oracle key.
	got, err := Combine(id, []*KeyShare{signers[0].Issue(id), fresh})
	if err != nil {
		t.Fatal(err)
	}
	want := kgc.ExtractPartialPrivateKey(id)
	if !bytes.Equal(got.Marshal(), want.Marshal()) {
		t.Fatal("post-refresh combine differs from single master")
	}
}

func TestApplyRefreshIdempotentAndOrdered(t *testing.T) {
	_, signers := newThresholdKGC(t, 2, 2, 22)
	s := signers[0]
	deltas, err := RefreshDeltas(2, 2, 1, detRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if ep, err := s.ApplyRefresh(deltas[0]); err != nil || ep != 1 {
		t.Fatalf("first apply: epoch %d, err %v", ep, err)
	}
	// Retrying the same epoch is an idempotent success (lost-ack replay).
	if ep, err := s.ApplyRefresh(deltas[0]); err != nil || ep != 1 {
		t.Fatalf("replayed apply: epoch %d, err %v", ep, err)
	}
	// Another holder's delta for that epoch is no replay: it is refused like
	// any wrong-index delta, however often it is re-sent.
	for i := 0; i < 2; i++ {
		if ep, err := s.ApplyRefresh(deltas[1]); err == nil || ep != 1 ||
			!strings.Contains(err.Error(), "delta for index 2 applied to share 1") {
			t.Fatalf("wrong-index replay %d: epoch %d, err %v", i, ep, err)
		}
	}
	// Skipping an epoch is refused.
	gap, err := RefreshDeltas(2, 2, 3, detRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyRefresh(gap[0]); err == nil {
		t.Fatal("epoch-gap refresh accepted")
	}
	// A delta for another holder's index is refused.
	next, err := RefreshDeltas(2, 2, 2, detRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyRefresh(next[1]); err == nil {
		t.Fatal("wrong-index refresh accepted")
	}
}

func TestRefreshDeltasRejectsBadShape(t *testing.T) {
	for _, tc := range []struct {
		t, n  int
		epoch uint32
	}{{0, 3, 1}, {4, 3, 1}, {1, MaxShares + 1, 1}, {2, 3, 0}} {
		if _, err := RefreshDeltas(tc.t, tc.n, tc.epoch, detRNG(1)); err == nil {
			t.Errorf("RefreshDeltas(%d, %d, %d): want error", tc.t, tc.n, tc.epoch)
		}
	}
	// t=1 deltas are identically zero: the epoch advances, the values don't.
	deltas, err := RefreshDeltas(1, 3, 1, detRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deltas {
		if !d.Value.IsZero() {
			t.Fatalf("1-of-n delta %d nonzero", d.Index)
		}
	}
}

func TestDeltaMarshalRoundTrip(t *testing.T) {
	deltas, err := RefreshDeltas(3, 4, 9, detRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deltas {
		got, err := UnmarshalDelta(d.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if got.Index != d.Index || got.Epoch != d.Epoch || got.Value != d.Value {
			t.Fatalf("round trip changed delta %d", d.Index)
		}
	}
	if _, err := UnmarshalDelta([]byte{1, 2}); err == nil {
		t.Error("short buffer: want error")
	}
	bad := deltas[0].Marshal()
	bad[0] = 0
	if _, err := UnmarshalDelta(bad); err == nil {
		t.Error("index zero: want error")
	}
	bad = deltas[0].Marshal()
	for i := 1; i < 5; i++ {
		bad[i] = 0
	}
	if _, err := UnmarshalDelta(bad); err == nil {
		t.Error("epoch zero: want error")
	}
}

// FuzzRefreshVsSingleMaster pins proactive refresh to the single-master
// oracle: across random t-of-n shapes and 1–3 refresh rounds, issuance
// after every round stays byte-identical to ExtractPartialPrivateKey (the
// master secret is untouched by construction), reconstruction still yields
// the master, and stale/fresh share mixes are rejected rather than
// combined.
func FuzzRefreshVsSingleMaster(f *testing.F) {
	f.Add([]byte("node-1"), uint8(2), uint8(3), uint8(1), int64(1))
	f.Add([]byte(""), uint8(1), uint8(1), uint8(3), int64(2))
	f.Add([]byte("sensor/7"), uint8(7), uint8(7), uint8(2), int64(3))
	f.Fuzz(func(t *testing.T, idBytes []byte, tRaw, nRaw, roundsRaw uint8, seed int64) {
		const maxN = 7
		tt := 1 + int(tRaw)%maxN
		n := tt + int(nRaw)%(maxN-tt+1)
		rounds := 1 + int(roundsRaw)%3
		id := string(idBytes)
		rng := detRNG(seed)

		master := hashToScalar("threshold/refresh-fuzz", append([]byte{byte(seed)}, idBytes...))
		kgc, err := core.NewKGCFromMaster(master)
		if err != nil {
			t.Fatal(err)
		}
		shares, err := Split(master, tt, n, rng)
		if err != nil {
			t.Fatal(err)
		}
		want := kgc.ExtractPartialPrivateKey(id)

		signers := make([]*Signer, n)
		for i, sh := range shares {
			if signers[i], err = NewSigner(kgc.Params(), sh); err != nil {
				t.Fatal(err)
			}
		}
		var staleKS *KeyShare // an epoch-0 key share kept across refreshes
		if tt > 1 {
			staleKS = signers[0].Issue(id)
		}

		for round := 1; round <= rounds; round++ {
			deltas, err := RefreshDeltas(tt, n, uint32(round), rng)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range signers {
				if ep, err := s.ApplyRefresh(deltas[i]); err != nil || ep != uint32(round) {
					t.Fatalf("round %d signer %d: epoch %d, err %v", round, i, ep, err)
				}
				if shares[i], err = shares[i].Refresh(deltas[i]); err != nil {
					t.Fatal(err)
				}
			}

			// A random t-subset issues and combines byte-identically to the
			// single-master oracle.
			perm := rng.Perm(n)[:tt]
			subset := make([]*KeyShare, tt)
			scalarSubset := make([]*Share, tt)
			for i, idx := range perm {
				subset[i] = signers[idx].Issue(id)
				scalarSubset[i] = shares[idx]
			}
			got, err := Combine(id, subset)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Marshal(), want.Marshal()) {
				t.Fatalf("%d-of-%d round %d: refreshed combine differs from single master", tt, n, round)
			}
			if rec, err := Reconstruct(scalarSubset); err != nil || rec.Cmp(master) != 0 {
				t.Fatalf("round %d: scalar reconstruct mismatch (err=%v)", round, err)
			}

			// Mixing a pre-refresh key share with current-epoch shares must
			// be rejected, not combined into a wrong key.
			if staleKS != nil {
				mixed := append([]*KeyShare{staleKS}, subset[:tt-1]...)
				if _, err := Combine(id, mixed); !errors.Is(err, ErrMixedEpochs) {
					t.Fatalf("round %d: mixed-epoch combine: got %v, want ErrMixedEpochs", round, err)
				}
			}
		}
	})
}
