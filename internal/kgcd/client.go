package kgcd

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mccls/internal/core"
)

// Client defaults; zero values in ClientConfig select these.
const (
	DefaultMaxAttempts = 3
	DefaultBackoffBase = 100 * time.Millisecond
	DefaultBackoffCap  = 2 * time.Second
	DefaultJitterFrac  = 0.25
)

// ClientConfig tunes the enrollment client's retry and breaker behavior.
type ClientConfig struct {
	// MaxAttempts bounds tries per Enroll call (first try included).
	MaxAttempts int
	// BackoffBase / BackoffCap shape the capped exponential backoff
	// between attempts: base·2^(attempt−1), never above the cap.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// JitterFrac in [0, 1] spreads each backoff uniformly up to that
	// fraction above nominal, decorrelating a rebooting fleet.
	JitterFrac float64
	// JitterSeed seeds the jitter stream, making retry timing
	// reproducible in tests and the load harness.
	JitterSeed int64
	// Breaker tunes the client-side circuit breaker guarding the combiner.
	Breaker BreakerConfig
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.MaxAttempts == 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = DefaultBackoffBase
	}
	if c.BackoffCap == 0 {
		c.BackoffCap = DefaultBackoffCap
	}
	if c.JitterFrac == 0 {
		c.JitterFrac = DefaultJitterFrac
	}
	if c.JitterSeed == 0 {
		c.JitterSeed = 1
	}
	return c
}

// ErrCircuitOpen marks an Enroll attempt refused locally because the
// client's breaker is open: the combiner failed enough recent requests
// that sending more would only add load.
var ErrCircuitOpen = errors.New("kgcd client: circuit open")

// EnrollError is a failed enrollment attempt with enough structure to act
// on: the HTTP status (0 for transport-level failures), a snippet of the
// response body, and the server's Retry-After hint when it sent one.
type EnrollError struct {
	// Status is the HTTP status code; 0 means the request never got an
	// HTTP response (connection refused, reset, timeout).
	Status int
	// Body is a bounded snippet of the error body.
	Body string
	// RetryAfter is the parsed Retry-After hint (0 when absent).
	RetryAfter time.Duration
	// Err is the underlying error, if any.
	Err error
}

func (e *EnrollError) Error() string {
	switch {
	case e.Status != 0 && e.Body != "":
		return fmt.Sprintf("kgcd client: enroll status %d: %s", e.Status, e.Body)
	case e.Status != 0:
		return fmt.Sprintf("kgcd client: enroll status %d", e.Status)
	default:
		return fmt.Sprintf("kgcd client: enroll: %v", e.Err)
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
// material goes through the validating Unmarshal paths, so a tampered or
// misdirected response is rejected here. Enroll retries retryable failures
// with capped exponential backoff and seeded jitter, honors Retry-After,
// and trips a local circuit breaker when the combiner keeps failing.
type Client struct {
	base string
	hc   *http.Client
	cfg  ClientConfig
	br   *breaker

	mu  sync.Mutex // guards rng: one Client is shared across load workers
	rng *mrand.Rand
}

// NewClient creates a client with default retry behavior for a combiner
// base URL such as "http://10.0.0.1:7600". A nil http.Client gets a 5 s
// overall timeout.
func NewClient(base string, hc *http.Client) *Client {
	return NewClientWithConfig(base, hc, ClientConfig{})
}

// NewClientWithConfig is NewClient with explicit retry/breaker tuning.
func NewClientWithConfig(base string, hc *http.Client, cfg ClientConfig) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: 5 * time.Second}
	}
	cfg = cfg.withDefaults()
	return &Client{
		base: base,
		hc:   hc,
		cfg:  cfg,
		br:   newBreaker(cfg.Breaker),
		// Golden-ratio seed derivation, as in secrouting's enrollment
		// backoff: distinct deterministic streams from one master seed.
		rng: mrand.New(mrand.NewSource(int64(uint64(cfg.JitterSeed) ^ 0x9e3779b97f4a7c15))),
	}
}

// EnrollResult is a successful enrollment: the validated partial private
// key, and whether the combiner served it from cache.
type EnrollResult struct {
	PartialKey *core.PartialPrivateKey
	Cached     bool
}

// Params fetches and validates the public system parameters.
func (c *Client) Params(ctx context.Context) (*core.Params, error) {
	var pr paramsResponse
	if err := c.getJSON(ctx, "/params", &pr); err != nil {
		return nil, err
	}
	raw, err := hex.DecodeString(pr.Ppub)
	if err != nil {
		return nil, fmt.Errorf("kgcd client: params hex: %w", err)
	}
	return core.UnmarshalParams(raw)
}

// Enroll requests a partial private key for an identity, retrying
// retryable failures up to MaxAttempts with capped exponential backoff.
// The returned key has passed point/subgroup validation but not the
// pairing check against the parameters — GenerateKeyPair performs that
// (and must, since only the enrollee knows which parameters it trusts).
func (c *Client) Enroll(ctx context.Context, id string) (*EnrollResult, error) {
	var last *EnrollError
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			var hint time.Duration
			if last != nil {
				hint = last.RetryAfter
			}
			if err := c.backoff(ctx, attempt-1, hint); err != nil {
				return nil, err
			}
		}
		if !c.br.Allow() {
			last = &EnrollError{Err: ErrCircuitOpen}
			continue
		}
		res, eerr := c.enrollOnce(ctx, id)
		if eerr == nil {
			c.br.Record(true)
			return res, nil
		}
		// The breaker tracks the combiner's health, not ours: transport
		// failures and 5xx count against it; 4xx means it answered.
		c.br.Record(eerr.Status != 0 && eerr.Status < 500)
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

// backoff sleeps base·2^(n−1) with seeded jitter, capped, raised to the
// server's Retry-After hint (also capped) when one was given.
func (c *Client) backoff(ctx context.Context, n int, retryAfter time.Duration) error {
	d := c.cfg.BackoffBase << (n - 1)
	if d > c.cfg.BackoffCap || d <= 0 {
		d = c.cfg.BackoffCap
	}
	if retryAfter > d {
		d = min(retryAfter, c.cfg.BackoffCap)
	}
	c.mu.Lock()
	d += time.Duration(c.cfg.JitterFrac * c.rng.Float64() * float64(d))
	c.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// enrollOnce performs a single enrollment round trip.
func (c *Client) enrollOnce(ctx context.Context, id string) (*EnrollResult, *EnrollError) {
	body, err := json.Marshal(enrollRequest{ID: id})
	if err != nil {
		return nil, &EnrollError{Err: err, Status: -1} // not retryable, not transport
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/enroll", bytes.NewReader(body))
	if err != nil {
		return nil, &EnrollError{Err: err, Status: -1}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, &EnrollError{Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &EnrollError{
			Status:     resp.StatusCode,
			Body:       errorSnippet(resp),
			RetryAfter: parseRetryAfter(resp),
		}
	}
	var er enrollResponse
	if err := json.NewDecoder(&limitedBody{resp.Body, maxBodyBytes}).Decode(&er); err != nil {
		return nil, &EnrollError{Status: -1, Err: fmt.Errorf("kgcd client: decode: %w", err)}
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

// errorSnippet extracts a bounded, printable slice of an error response
// body for EnrollError.Body.
func errorSnippet(resp *http.Response) string {
	const maxSnippet = 160
	var er errorResponse
	if err := json.NewDecoder(&limitedBody{resp.Body, maxBodyBytes}).Decode(&er); err == nil && er.Error != "" {
		if len(er.Error) > maxSnippet {
			return er.Error[:maxSnippet]
		}
		return er.Error
	}
	return ""
}

// parseRetryAfter reads an integer-seconds Retry-After header (the only
// form kgcd emits; HTTP-date form is ignored).
func parseRetryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Healthz returns the combiner's health report; err is non-nil when the
// service is below quorum or unreachable.
func (c *Client) Healthz(ctx context.Context) (*healthResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(&limitedBody{resp.Body, maxBodyBytes}).Decode(&h); err != nil {
		return nil, fmt.Errorf("kgcd client: decode healthz: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return &h, fmt.Errorf("kgcd client: %s", h.Status)
	}
	return &h, nil
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

func (c *Client) getJSON(ctx context.Context, path string, dst any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("kgcd client: %s %s", path, readErrorBody(resp))
	}
	return json.NewDecoder(&limitedBody{resp.Body, maxBodyBytes}).Decode(dst)
}
