package kgcd

import (
	"context"
	"encoding/hex"
	"fmt"
	"net/http"

	"mccls/internal/threshold"
)

// maxBodyBytes caps request bodies on every JSON endpoint; an enrollment
// request is an identity string, so 4 KiB is generous.
const maxBodyBytes = 4 << 10

// idRequest is the body of both POST /share and the combiner's POST /enroll.
type idRequest struct {
	ID string `json:"id"`
}

// shareResponse is the signer replica's reply. The share is hex of
// KeyShare.Marshal (index byte ‖ 128-byte G2 point).
type shareResponse struct {
	Index uint8  `json:"index"`
	Epoch uint32 `json:"epoch"`
	Share string `json:"share"`
}

// refreshRequest / refreshResponse carry one proactive-refresh delta
// (threshold.Delta.Marshal, hex) and the epoch the replica ended up at.
type refreshRequest struct {
	Delta string `json:"delta"`
}

type refreshResponse struct {
	Epoch uint32 `json:"epoch"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// NewSignerHandler serves one share-holder replica:
//
//	POST /share   {"id": ...} → {"index": j, "epoch": e, "share": hex(D_j)}
//	POST /refresh {"delta": hex(δ_j)} → {"epoch": e}
//	GET  /healthz            → {"status": "ok", "index": j, "epoch": e}
//
// Replicas hold only their Shamir share; compromising fewer than t of them
// reveals nothing about the master secret and forges nothing. /refresh is
// idempotent against coordinator retries (threshold.Signer.ApplyRefresh);
// issuance keeps running while a refresh lands — a share is swapped
// atomically and every issued key share is epoch-stamped. maxIDLen bounds
// identity length (≤ 0 selects MaxIDLen, the combiner's bound).
func NewSignerHandler(signer *threshold.Signer, maxIDLen int) http.Handler {
	if maxIDLen <= 0 {
		maxIDLen = MaxIDLen
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /share", func(w http.ResponseWriter, r *http.Request) {
		var req idRequest
		if err := decodeJSON(w, r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if len(req.ID) == 0 || len(req.ID) > maxIDLen {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("identity length must be in [1, %d]", maxIDLen))
			return
		}
		ks := signer.Issue(req.ID)
		writeJSON(w, http.StatusOK, shareResponse{Index: ks.Index, Epoch: ks.Epoch, Share: hex.EncodeToString(ks.Marshal())})
	})
	mux.HandleFunc("POST /refresh", func(w http.ResponseWriter, r *http.Request) {
		var req refreshRequest
		if err := decodeJSON(w, r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		raw, err := hex.DecodeString(req.Delta)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("delta hex: %v", err))
			return
		}
		delta, err := threshold.UnmarshalDelta(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		epoch, err := signer.ApplyRefresh(delta)
		if err != nil {
			// Wrong index or an epoch gap: the coordinator's view of this
			// replica is stale, not a malformed request.
			writeError(w, http.StatusConflict, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, refreshResponse{Epoch: epoch})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "index": signer.Index(), "epoch": signer.Epoch()})
	})
	return mux
}

// shareIssuer is the combiner's view of one signer replica. httpIssuer is
// the production implementation; tests may substitute in-process fakes.
type shareIssuer interface {
	// Issue requests this replica's key share for an identity.
	Issue(ctx context.Context, id string) (*threshold.KeyShare, error)
	// Name identifies the replica in errors and health output.
	Name() string
	// Healthy probes the replica's /healthz.
	Healthy(ctx context.Context) error
}

// httpIssuer talks to a signer replica over HTTP.
type httpIssuer struct {
	base string // e.g. http://127.0.0.1:7611
	hc   *http.Client
}

func newHTTPIssuer(base string, hc *http.Client) *httpIssuer {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &httpIssuer{base: base, hc: hc}
}

func (h *httpIssuer) Name() string { return h.base }

func (h *httpIssuer) Issue(ctx context.Context, id string) (*threshold.KeyShare, error) {
	var sr shareResponse
	if err := call(ctx, h.hc, h.base+"/share", idRequest{ID: id}, &sr); err != nil {
		return nil, fmt.Errorf("signer %s: %w", h.base, err)
	}
	raw, err := hex.DecodeString(sr.Share)
	if err != nil {
		return nil, fmt.Errorf("signer %s: share hex: %w", h.base, err)
	}
	ks, err := threshold.UnmarshalKeyShare(id, raw)
	if err != nil {
		return nil, fmt.Errorf("signer %s: %w", h.base, err)
	}
	if ks.Index != sr.Index {
		return nil, fmt.Errorf("signer %s: index mismatch %d vs %d", h.base, ks.Index, sr.Index)
	}
	if ks.Epoch != sr.Epoch {
		return nil, fmt.Errorf("signer %s: epoch mismatch %d vs %d", h.base, ks.Epoch, sr.Epoch)
	}
	return ks, nil
}

// Refresh posts one proactive-refresh delta to the replica and returns the
// epoch it reports afterwards.
func (h *httpIssuer) Refresh(ctx context.Context, delta *threshold.Delta) (uint32, error) {
	var rr refreshResponse
	if err := call(ctx, h.hc, h.base+"/refresh", refreshRequest{Delta: hex.EncodeToString(delta.Marshal())}, &rr); err != nil {
		return 0, fmt.Errorf("signer %s: refresh: %w", h.base, err)
	}
	return rr.Epoch, nil
}

func (h *httpIssuer) Healthy(ctx context.Context) error {
	if err := call(ctx, h.hc, h.base+"/healthz", nil, nil); err != nil {
		return fmt.Errorf("signer %s: healthz: %w", h.base, err)
	}
	return nil
}
