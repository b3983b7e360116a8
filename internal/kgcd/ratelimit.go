package kgcd

import (
	"sync"
	"time"

	"mccls/internal/lru"
)

// rateLimiter is a per-identity token bucket: each identity may enroll in
// bursts of up to burst requests and sustain rate requests/second after
// that. Real fleets re-enroll at reboot rate, not line rate; anything
// hotter is a stuck client or an attacker grinding the issuance path, and
// gets 429 instead of t G2 scalar multiplications. Buckets live in an LRU
// so an attacker cycling identities bounds memory, not correctness: an
// evicted identity starts over with a full bucket, which only ever errs
// permissive.
type rateLimiter struct {
	rate    float64 // tokens per second
	burst   float64
	buckets *lru.Cache[*tokenBucket]
}

type tokenBucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// newRateLimiter creates a limiter; rate ≤ 0 disables limiting.
func newRateLimiter(rate float64, burst int, maxIdentities int) *rateLimiter {
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{
		rate:    rate,
		burst:   float64(burst),
		buckets: lru.New[*tokenBucket](maxIdentities),
	}
}

// Allow reports whether identity id may proceed at instant now, consuming
// one token.
func (rl *rateLimiter) Allow(id string, now time.Time) bool {
	if rl.rate <= 0 {
		return true
	}
	b := rl.buckets.GetOrCreate(id, func() *tokenBucket {
		return &tokenBucket{tokens: rl.burst, last: now}
	})
	b.mu.Lock()
	defer b.mu.Unlock()
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * rl.rate
		if b.tokens > rl.burst {
			b.tokens = rl.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
