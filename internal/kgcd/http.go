package kgcd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// decodeJSON decodes a request body with a hard size cap and strict field
// checking; the body must be exactly one JSON value.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return fmt.Errorf("bad request body: trailing data after the JSON value")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// call is the one JSON round trip behind every client path in the package:
// POST in (GET when in is nil) to url and, on 200, decode the reply into out
// (skipped when out is nil). Replies are read through a maxBodyBytes cap, so
// a misbehaving peer cannot balloon a decode. Failures are classified by
// EnrollError.Status: 0 transport, the HTTP status when not 200, −1 for a
// request that could not be built or a reply that could not be decoded.
func call(ctx context.Context, hc *http.Client, url string, in, out any) *EnrollError {
	method, body := http.MethodGet, io.Reader(nil)
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return &EnrollError{Status: -1, Err: err}
		}
		method, body = http.MethodPost, bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return &EnrollError{Status: -1, Err: err}
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return &EnrollError{Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &EnrollError{Status: resp.StatusCode, Body: errorSnippet(resp)}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(http.MaxBytesReader(nil, resp.Body, maxBodyBytes)).Decode(out); err != nil {
		return &EnrollError{Status: -1, Err: fmt.Errorf("decode %s: %w", url, err)}
	}
	return nil
}

// errorSnippet extracts a bounded slice of the error string from a non-200
// JSON reply, read through the same cap ("" when there is none).
func errorSnippet(resp *http.Response) string {
	const maxSnippet = 160
	var er errorResponse
	if err := json.NewDecoder(http.MaxBytesReader(nil, resp.Body, maxBodyBytes)).Decode(&er); err != nil {
		return ""
	}
	return er.Error[:min(len(er.Error), maxSnippet)]
}
