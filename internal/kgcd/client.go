package kgcd

import (
	"context"
	"encoding/hex"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"time"

	"mccls/internal/core"
)

// The client's retry shape: up to maxAttempts tries per Enroll, separated by
// backoffBase·2^(attempt−1) capped at backoffCap, each wait stretched by a
// uniform draw of up to jitterFrac above nominal.
const (
	maxAttempts = 3
	backoffBase = 100 * time.Millisecond
	backoffCap  = 2 * time.Second
	jitterFrac  = 0.25
)

// EnrollError is a failed round trip (an enrollment attempt, or any other
// request made through call) with enough structure to act on: the HTTP
// status (0 for transport-level failures) and a snippet of the response
// body.
type EnrollError struct {
	// Status is the HTTP status code; 0 means the request never got an
	// HTTP response (connection refused, reset, timeout).
	Status int
	// Body is a bounded snippet of the error body.
	Body string
	// Err is the underlying error, if any.
	Err error
}

func (e *EnrollError) Error() string {
	switch {
	case e.Status > 0 && e.Body != "":
		return fmt.Sprintf("kgcd: status %d: %s", e.Status, e.Body)
	case e.Status > 0:
		return fmt.Sprintf("kgcd: status %d", e.Status)
	default:
		return fmt.Sprintf("kgcd: %v", e.Err)
	}
}

func (e *EnrollError) Unwrap() error { return e.Err }

// Retryable reports whether another attempt could plausibly succeed:
// transport failures, 429 (rate limited — the bucket refills) and 5xx
// (replica churn, quorum loss — the cluster heals). Other 4xx are the
// caller's fault and repeat deterministically.
func (e *EnrollError) Retryable() bool {
	if e.Status == 0 {
		return true
	}
	return e.Status == http.StatusTooManyRequests || e.Status >= 500
}

// Client is the enrollment client library: what a field node (or the load
// harness, or the example) uses to talk to a kgcd combiner. All decoded
// material goes through the validating Unmarshal paths, so a malformed or
// misdirected response is rejected here. Enroll retries retryable failures
// with capped exponential backoff and jitter.
type Client struct {
	base string
	hc   *http.Client
	clk  clock
	// jitter draws from [0, 1). math/rand's top-level source is randomly
	// seeded and safe for concurrent use, so the clients of a rebooting
	// fleet spread their retries instead of marching in lockstep.
	jitter func() float64
}

// NewClient creates a client for a combiner base URL such as
// "http://10.0.0.1:7600". A nil http.Client gets a 5 s overall timeout.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: 5 * time.Second}
	}
	return &Client{base: base, hc: hc, clk: wallClock{}, jitter: mrand.Float64}
}

// EnrollResult is a successful enrollment: the validated partial private
// key, and whether the combiner served it from cache.
type EnrollResult struct {
	PartialKey *core.PartialPrivateKey
	Cached     bool
}

// Enroll requests a partial private key for an identity, retrying
// retryable failures up to maxAttempts with capped exponential backoff.
// The returned key is only curve-checked: GenerateKeyPair and
// NewPrivateKeyFromSecret validate it (subgroup, pairing) before using D,
// as they must, since only the enrollee knows which parameters it trusts.
func (c *Client) Enroll(ctx context.Context, id string) (*EnrollResult, error) {
	var last *EnrollError
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if attempt > 1 {
			if err := sleep(ctx, c.clk, c.backoff(attempt-1)); err != nil {
				return nil, err
			}
		}
		res, eerr := c.enrollOnce(ctx, id)
		if eerr == nil {
			return res, nil
		}
		last = eerr
		if !eerr.Retryable() {
			return nil, eerr
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, last
}

// backoff is the wait before retry n (1-based): backoffBase·2^(n−1), capped,
// then stretched by the jitter draw into [d, d·(1+jitterFrac)).
func (c *Client) backoff(n int) time.Duration {
	d := min(backoffBase<<(n-1), backoffCap)
	return d + time.Duration(jitterFrac*c.jitter()*float64(d))
}

// enrollOnce performs a single enrollment round trip.
func (c *Client) enrollOnce(ctx context.Context, id string) (*EnrollResult, *EnrollError) {
	var er enrollResponse
	if eerr := call(ctx, c.hc, c.base+"/enroll", idRequest{ID: id}, &er); eerr != nil {
		return nil, eerr
	}
	if er.ID != id {
		return nil, &EnrollError{Status: -1, Err: fmt.Errorf("kgcd client: reply for %q, want %q", er.ID, id)}
	}
	raw, err := hex.DecodeString(er.PartialKey)
	if err != nil {
		return nil, &EnrollError{Status: -1, Err: fmt.Errorf("kgcd client: partial key hex: %w", err)}
	}
	ppk, err := core.UnmarshalPartialPrivateKey(raw)
	if err != nil {
		return nil, &EnrollError{Status: -1, Err: err}
	}
	if ppk.ID != id {
		return nil, &EnrollError{Status: -1, Err: fmt.Errorf("kgcd client: partial key bound to %q, want %q", ppk.ID, id)}
	}
	return &EnrollResult{PartialKey: ppk, Cached: er.Cached}, nil
}

// RawMetrics fetches the Prometheus text exposition, for scraping counters
// (the load harness reads the cache hit counters this way).
func (c *Client) RawMetrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("kgcd client: metrics status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return string(raw), err
}
