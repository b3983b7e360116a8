package secrouting

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"mccls/internal/aodv"
	"mccls/internal/routing"
)

func newRealAuth(t *testing.T) *McCLSAuth {
	t.Helper()
	a, err := NewMcCLSAuth(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestMcCLSAuthRoundTrip(t *testing.T) {
	a := newRealAuth(t)
	if err := a.Enroll(3); err != nil {
		t.Fatal(err)
	}
	payload := []byte("RREQ id=9 origin=3")
	tag, d, err := a.Sign(3, payload)
	if err != nil {
		t.Fatal(err)
	}
	if d != DefaultSignLatency {
		t.Fatalf("sign delay = %v", d)
	}
	if len(tag) != a.Overhead() {
		t.Fatalf("tag length %d != overhead %d", len(tag), a.Overhead())
	}
	ok, d := a.Verify(3, payload, tag)
	if !ok {
		t.Fatal("valid tag rejected")
	}
	if d != DefaultVerifyLatency {
		t.Fatalf("verify delay = %v", d)
	}
}

func TestMcCLSAuthRejectsTamperedPayload(t *testing.T) {
	a := newRealAuth(t)
	if err := a.Enroll(1); err != nil {
		t.Fatal(err)
	}
	payload := []byte("RREP dest=4 seq=7 hops=2")
	tag, _, _ := a.Sign(1, payload)
	tampered := bytes.Clone(payload)
	tampered[5] ^= 0xFF // e.g. a rushed/modified hop count
	if ok, _ := a.Verify(1, tampered, tag); ok {
		t.Fatal("tampered payload accepted")
	}
}

func TestMcCLSAuthRejectsUnenrolled(t *testing.T) {
	a := newRealAuth(t)
	if err := a.Enroll(1); err != nil {
		t.Fatal(err)
	}
	payload := []byte("forged RREP")
	// The attacker (node 9, never enrolled) emits a well-sized tag that
	// cannot verify.
	tag, d, err := a.Sign(9, payload)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatal("attacker charged crypto time for garbage tag")
	}
	if len(tag) != a.Overhead() {
		t.Fatal("attacker tag has wrong size")
	}
	if ok, _ := a.Verify(9, payload, tag); ok {
		t.Fatal("unenrolled node's tag accepted")
	}
	if a.Enrolled(9) || !a.Enrolled(1) {
		t.Fatal("enrollment bookkeeping wrong")
	}
}

func TestMcCLSAuthRejectsCrossNodeTag(t *testing.T) {
	a := newRealAuth(t)
	for _, n := range []int{1, 2} {
		if err := a.Enroll(n); err != nil {
			t.Fatal(err)
		}
	}
	payload := []byte("hello")
	tag, _, _ := a.Sign(1, payload)
	// A valid tag from node 1 must not verify as node 2 (identity is bound
	// through H1 and H2).
	if ok, _ := a.Verify(2, payload, tag); ok {
		t.Fatal("node 1's tag verified as node 2")
	}
}

func TestMcCLSAuthMalformedTag(t *testing.T) {
	a := newRealAuth(t)
	if err := a.Enroll(1); err != nil {
		t.Fatal(err)
	}
	for _, tag := range [][]byte{nil, {1, 2, 3}, make([]byte, a.Overhead())} {
		if ok, _ := a.Verify(1, []byte("m"), tag); ok {
			t.Fatalf("malformed tag of len %d accepted", len(tag))
		}
	}
}

func TestCostModelAuthMirrorsRealBehaviour(t *testing.T) {
	real := newRealAuth(t)
	model := NewCostModelAuth()
	for _, n := range []int{0, 1} {
		if err := real.Enroll(n); err != nil {
			t.Fatal(err)
		}
		model.Enroll(n)
	}
	payloads := [][]byte{[]byte("a"), []byte("RREQ 1"), make([]byte, 100)}
	for _, p := range payloads {
		// enrolled nodes, intact payload → both accept
		for _, n := range []int{0, 1} {
			rt, _, _ := real.Sign(n, p)
			mt, _, _ := model.Sign(n, p)
			rok, _ := real.Verify(n, p, rt)
			mok, _ := model.Verify(n, p, mt)
			if !rok || !mok {
				t.Fatal("authenticators disagree on valid input")
			}
			// tampered payload → both reject
			bad := append(bytes.Clone(p), 0xFF)
			rok, _ = real.Verify(n, bad, rt)
			mok, _ = model.Verify(n, bad, mt)
			if rok || mok {
				t.Fatal("authenticators disagree on tampered input")
			}
		}
		// attacker (node 9) → both reject
		rt, _, _ := real.Sign(9, p)
		mt, _, _ := model.Sign(9, p)
		rok, _ := real.Verify(9, p, rt)
		mok, _ := model.Verify(9, p, mt)
		if rok || mok {
			t.Fatal("authenticators disagree on attacker input")
		}
	}
}

func TestCostModelLatencies(t *testing.T) {
	a := NewCostModelAuth()
	a.Enroll(0)
	if _, d, _ := a.Sign(0, []byte("x")); d != DefaultSignLatency {
		t.Fatalf("sign latency %v", d)
	}
	tag, _, _ := a.Sign(0, []byte("x"))
	if _, d := a.Verify(0, []byte("x"), tag); d != DefaultVerifyLatency {
		t.Fatalf("verify latency %v", d)
	}
	// Attackers pay nothing to emit garbage.
	if _, d, _ := a.Sign(5, []byte("x")); d != 0 {
		t.Fatal("attacker charged sign latency")
	}
	if a.Overhead() <= 0 {
		t.Fatal("overhead must be positive")
	}
}

// TestCostModelTagPinned pins the cost-model tag to the keyed digest written
// out as a streaming hash.Hash, shows a returned tag survives the scratch
// buffer's reuse, and walks the edges of the enrollment table now that it is
// a slice indexed by node instead of a map.
func TestCostModelTagPinned(t *testing.T) {
	a := NewCostModelAuth()
	a.Enroll(3)
	// secret ‖ uint32(node) ‖ payload. The node was first a uint64; four
	// bytes are what the control-packet encodings use, and they keep an
	// AODV control packet's keyed input to one SHA-256 compression
	// (TestCostModelKeyedInputOneBlock).
	h := sha256.New()
	h.Write(append([]byte("McCLS"), make([]byte, 11)...))
	h.Write([]byte{0, 0, 0, 3})
	h.Write([]byte("RREQ"))
	tag, _, _ := a.Sign(3, []byte("RREQ"))
	if !bytes.Equal(tag, h.Sum(nil)) {
		t.Fatalf("tag %x, want %x", tag, h.Sum(nil))
	}
	again, _, _ := a.Sign(3, []byte("RREP")) // reuses the scratch buffer
	if ok, _ := a.Verify(3, []byte("RREQ"), tag); !ok || bytes.Equal(tag, again) {
		t.Fatal("a returned tag was disturbed by the next call")
	}
	if a.Enrolled(-1) || a.Enrolled(2) || a.Enrolled(4) || !a.Enrolled(3) {
		t.Fatal("enrollment table reports the wrong nodes")
	}
	a.Unenroll(-1)
	a.Unenroll(99)
	a.Unenroll(3)
	if forged, d, _ := a.Sign(3, []byte("RREQ")); a.Enrolled(3) || d != 0 || !bytes.Equal(forged, make([]byte, sha256.Size)) {
		t.Fatal("an unenrolled node still signs")
	}
}

// TestCostModelKeyedInputOneBlock guards the cost model's price: SHA-256
// pads a message with at least 9 bytes, so an input of up to 55 bytes is one
// 64-byte compression and anything longer is two. Every AODV control packet
// the city figures flood, at maximal field values, must stay in one block;
// an encoding field that pushes the RREQ to two would cost the simulator a
// second compression on every receive.
func TestCostModelKeyedInputOneBlock(t *testing.T) {
	const maxInt = math.MaxUint32
	hop := routing.HopAuth{Sender: maxInt}
	dest := aodv.UnreachableDest{Dest: maxInt, DestSeq: math.MaxUint32}
	for _, tc := range []struct {
		name string
		msg  routing.Packet
	}{
		{"RREQ", &aodv.RREQ{ID: math.MaxUint32, Origin: maxInt, OriginSeq: math.MaxUint32, Dest: maxInt,
			DestSeq: math.MaxUint32, SeqKnown: true, HopCount: maxInt, TTL: maxInt, HopAuth: hop}},
		{"RREP", &aodv.RREP{Origin: maxInt, Dest: maxInt, DestSeq: math.MaxUint32, HopCount: maxInt,
			Lifetime: maxInt * time.Millisecond, HopAuth: hop}},
		{"RERR/1", &aodv.RERR{Unreachable: []aodv.UnreachableDest{dest}, HopAuth: hop}},
		{"RERR/2", &aodv.RERR{Unreachable: []aodv.UnreachableDest{dest, dest}, HopAuth: hop}},
		{"RERR/3", &aodv.RERR{Unreachable: []aodv.UnreachableDest{dest, dest, dest}, HopAuth: hop}},
	} {
		const node = 499 // the node is four bytes whatever its value
		a := NewCostModelAuth()
		a.Enroll(node)
		payload := tc.msg.AppendEncode(nil)
		tag, _, _ := a.Sign(node, payload)
		if ok, _ := a.Verify(node, payload, tag); !ok {
			t.Fatalf("%s: tag rejected", tc.name)
		}
		if len(a.keyed) > 55 {
			t.Errorf("%s: keyed input is %d bytes (payload %d), more than one SHA-256 block holds (55)", tc.name, len(a.keyed), len(payload))
		}
	}
}

func TestNodeIdentityStable(t *testing.T) {
	if NodeIdentity(7) != "node-7" || NodeIdentity(0) != "node-0" {
		t.Fatal("identity mapping changed; breaks key binding")
	}
}

// Interface compliance for both authenticators.
var (
	_ routing.Authenticator = (*McCLSAuth)(nil)
	_ routing.Authenticator = (*CostModelAuth)(nil)
)

// flakyReader is an RNG that can be switched into a failing state.
type flakyReader struct {
	fail bool
	r    io.Reader
}

func (f *flakyReader) Read(p []byte) (int, error) {
	if f.fail {
		return 0, errors.New("entropy source wedged")
	}
	return f.r.Read(p)
}

func TestSignReportsRandomnessFailure(t *testing.T) {
	fr := &flakyReader{r: rand.New(rand.NewSource(1))}
	a, err := NewMcCLSAuth(fr)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Enroll(1); err != nil {
		t.Fatal(err)
	}
	fr.fail = true
	if _, _, err := a.Sign(1, []byte("RREQ")); err == nil {
		t.Fatal("sign with a failing RNG must return an error, not a garbage tag")
	}
	// Unenrolled senders never touch the RNG: still zero-cost garbage.
	if tag, d, err := a.Sign(9, []byte("RREQ")); err != nil || d != 0 || len(tag) != a.Overhead() {
		t.Fatal("unenrolled path must not depend on the RNG")
	}
	fr.fail = false
	if _, _, err := a.Sign(1, []byte("RREQ")); err != nil {
		t.Fatalf("recovered RNG still failing: %v", err)
	}
}

func TestMalformedTagChargesParseLatency(t *testing.T) {
	real := newRealAuth(t)
	if err := real.Enroll(1); err != nil {
		t.Fatal(err)
	}
	model := NewCostModelAuth()
	model.Enroll(1)
	// Wrong-length tags are rejected before any crypto, but the length
	// check plus decode attempt is not free: DefaultParseLatency, exactly.
	for _, tag := range [][]byte{nil, {1, 2, 3}, make([]byte, 200)} {
		if ok, d := real.Verify(1, []byte("m"), tag); ok || d != DefaultParseLatency {
			t.Fatalf("McCLSAuth malformed len %d: ok=%v delay=%v", len(tag), ok, d)
		}
		if ok, d := model.Verify(1, []byte("m"), tag); ok || d != DefaultParseLatency {
			t.Fatalf("CostModelAuth malformed len %d: ok=%v delay=%v", len(tag), ok, d)
		}
	}
	// A right-sized tag that fails point decode also costs only parse time.
	if ok, d := real.Verify(1, []byte("m"), make([]byte, real.Overhead())); ok || d != DefaultParseLatency {
		t.Fatalf("undecodable tag: ok=%v delay=%v", ok, d)
	}
}

// FuzzVerifyAuth throws arbitrary tag bytes at the real verifier: it must
// never panic, never accept a wrong-sized tag, and always charge a delay in
// [0, VerifyLatency].
func FuzzVerifyAuth(f *testing.F) {
	a, err := NewMcCLSAuth(rand.New(rand.NewSource(1)))
	if err != nil {
		f.Fatal(err)
	}
	if err := a.Enroll(1); err != nil {
		f.Fatal(err)
	}
	payload := []byte("RREQ id=9 origin=3")
	valid, _, _ := a.Sign(1, payload)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(make([]byte, a.Overhead()))
	f.Fuzz(func(t *testing.T, tag []byte) {
		ok, d := a.Verify(1, payload, tag)
		if d < 0 || d > a.VerifyLatency {
			t.Fatalf("delay %v outside [0, %v]", d, a.VerifyLatency)
		}
		if ok && len(tag) != a.Overhead() {
			t.Fatalf("accepted a tag of length %d", len(tag))
		}
	})
}
