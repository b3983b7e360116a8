package kgcd

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mccls/internal/threshold"
)

// The three JSON handlers that take a body from the network reject it or
// serve it, never panic: for arbitrary bytes the status is 200 or 4xx, and
// what a 200 carries is pinned to what the body asked for.

// localIssuer answers the combiner from a signer in the same process, so a
// fuzz execution costs no sockets.
type localIssuer struct{ s *threshold.Signer }

func (l localIssuer) Issue(_ context.Context, id string) (*threshold.KeyShare, error) {
	return l.s.Issue(id), nil
}
func (l localIssuer) Name() string                  { return fmt.Sprintf("local-%d", l.s.Index()) }
func (l localIssuer) Healthy(context.Context) error { return nil }

// serve posts body to path on h and requires a 200 or a 4xx.
func serve(t *testing.T, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code > 499) {
		t.Fatalf("POST %s %q: status %d, want 200 or 4xx: %s", path, body, rec.Code, rec.Body)
	}
	return rec
}

// request decodes an accepted body, which was exactly one JSON value (it
// passed the handlers' strict decode, so the lenient one reads the same).
func request(t *testing.T, body []byte, dst any) {
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(dst); err != nil {
		t.Fatalf("200 for a body that does not decode: %q", body)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		t.Fatalf("200 for a body with trailing data: %q", body)
	}
}

// addBodySeeds seeds the valid bodies, in order — each first with a second
// value and with garbage behind it, which must bounce before the clean copy
// lands — and then the malformed shapes shared by the three handlers.
func addBodySeeds(f *testing.F, valid ...string) {
	var seeds []string
	for _, v := range valid {
		seeds = append(seeds, v+v, v+"garbage", v)
	}
	for _, s := range append(seeds, ``, `{`, `null`, `[]`, `{"id":""}`, `{"id":1}`, `{"id":"a","extra":1}`,
		`{"id":"a"}{"id":"b"}`, `{"id":"a"}garbage`, `{"id":"\ud800"}`, `{"delta":"zz"}`, `{"delta":""}`,
		`{"id":"`+strings.Repeat("x", MaxIDLen+1)+`"}`, `{"id":"`+strings.Repeat("y", maxBodyBytes)+`"}`) {
		f.Add([]byte(s))
	}
}

func FuzzEnrollBody(f *testing.F) {
	d := startDeployment(f, 2, 3, testMaster(60), Config{RatePerSec: -1, CacheSize: 64, clk: newFakeClock()}, nil)
	for i, s := range d.signers {
		d.srv.replicas[i].issuer = localIssuer{s}
	}
	h, kgc := d.srv.Handler(), d.kgc
	addBodySeeds(f, `{"id":"node-1"}`, `{"id":"pump/é"}`)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serve(t, h, "/enroll", body)
		if rec.Code != http.StatusOK {
			return
		}
		// Accepted: the key is the single master's for the identity asked.
		var req idRequest
		var resp enrollResponse
		request(t, body, &req)
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.ID != req.ID {
			t.Fatalf("reply %s for identity %q: %v", rec.Body, req.ID, err)
		}
		if want := hex.EncodeToString(kgc.ExtractPartialPrivateKey(req.ID).Marshal()); resp.PartialKey != want {
			t.Fatalf("identity %q: issued key differs from single master", req.ID)
		}
	})
}

func FuzzShareBody(f *testing.F) {
	signer := startDeployment(f, 2, 3, testMaster(61), Config{}, nil).signers[0]
	h := NewSignerHandler(signer, 0)
	addBodySeeds(f, `{"id":"node-1"}`)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serve(t, h, "/share", body)
		if rec.Code != http.StatusOK {
			return
		}
		var req idRequest
		var resp shareResponse
		request(t, body, &req)
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("reply %s: %v", rec.Body, err)
		}
		// The share on the wire decodes, re-marshals to itself, agrees with
		// the envelope and is the signer's share for that identity.
		raw, err := hex.DecodeString(resp.Share)
		if err != nil {
			t.Fatal(err)
		}
		ks, err := threshold.UnmarshalKeyShare(req.ID, raw)
		if err != nil {
			t.Fatalf("served share does not decode: %v", err)
		}
		if !bytes.Equal(ks.Marshal(), raw) || ks.Index != resp.Index || ks.Epoch != resp.Epoch ||
			!bytes.Equal(raw, signer.Issue(req.ID).Marshal()) {
			t.Fatalf("identity %q: served share %x (index %d, epoch %d) is not the signer's", req.ID, raw, resp.Index, resp.Epoch)
		}
	})
}

func FuzzRefreshBody(f *testing.F) {
	signer := startDeployment(f, 2, 3, testMaster(62), Config{}, nil).signers[0]
	h := NewSignerHandler(signer, 0)
	// Well-formed deltas, run in this order as seeds: this replica's for the
	// next epoch (applied), another replica's for the same one (409, however
	// often it is replayed), and the two of them across an epoch gap (409).
	var valid []string
	for _, epoch := range []uint32{1, 3} {
		deltas, err := threshold.RefreshDeltas(2, 3, epoch, mrand.New(mrand.NewSource(int64(epoch))))
		if err != nil {
			f.Fatal(err)
		}
		for _, d := range deltas[:2] {
			valid = append(valid, `{"delta":"`+hex.EncodeToString(d.Marshal())+`"}`)
		}
	}
	addBodySeeds(f, valid...)
	f.Fuzz(func(t *testing.T, body []byte) {
		before := signer.Epoch()
		rec := serve(t, h, "/refresh", body)
		if rec.Code != http.StatusOK {
			if signer.Epoch() != before {
				t.Fatalf("status %d moved the epoch %d → %d", rec.Code, before, signer.Epoch())
			}
			return
		}
		var req refreshRequest
		var resp refreshResponse
		request(t, body, &req)
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("reply %s: %v", rec.Body, err)
		}
		// The accepted delta re-marshals to the bytes that were posted and
		// names this replica and the epoch it is now at: either the next one,
		// applied, or the current one, replayed (acknowledged without a look
		// at the share).
		raw, err := hex.DecodeString(req.Delta)
		if err != nil {
			t.Fatalf("200 for delta hex %q: %v", req.Delta, err)
		}
		delta, err := threshold.UnmarshalDelta(raw)
		if err != nil || !bytes.Equal(delta.Marshal(), raw) {
			t.Fatalf("200 for delta %x: %v", raw, err)
		}
		if delta.Index != signer.Index() || resp.Epoch != delta.Epoch || signer.Epoch() != delta.Epoch ||
			(delta.Epoch != before && delta.Epoch != before+1) {
			t.Fatalf("delta (index %d, epoch %d) accepted by replica %d at epoch %d → %d, reply %d",
				delta.Index, delta.Epoch, signer.Index(), before, signer.Epoch(), resp.Epoch)
		}
	})
}
