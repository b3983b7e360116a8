package kgcd

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed: traffic flows, outcomes are sampled.
	BreakerClosed BreakerState = iota
	// BreakerOpen: traffic is refused until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: exactly one probe request is admitted; its outcome
	// decides between closing and re-opening with a longer cooldown.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// The breaker's shape. A 16-outcome sliding window is trusted once it holds 8
// samples and trips at a 50 % failure rate; the open interval starts at 2 s
// and doubles with each failed half-open probe up to 30 s.
const (
	breakerWindow      = 16
	breakerMinSamples  = 8
	breakerFailureRate = 0.5
	breakerCooldown    = 2 * time.Second
	breakerMaxCooldown = 30 * time.Second
)

// breaker is a per-replica circuit breaker: closed → (failure rate trips) →
// open → (cooldown elapses) → half-open → one probe → closed or open again
// with a doubled cooldown. It keeps a dead replica from soaking up fan-out
// slots and request deadlines: while open, gatherShares skips the replica
// entirely and spends its budget on ones that might answer. It holds no
// clock: the owner passes its clock's Now into every time-dependent call.
type breaker struct {
	mu       sync.Mutex
	state    BreakerState
	window   [breakerWindow]bool // ring buffer of outcomes, true = failure
	pos      int                 // next write position
	filled   int                 // outcomes recorded, ≤ len(window)
	openedAt time.Time
	cooldown time.Duration
	probing  bool // half-open: the single probe slot is taken
	opens    uint64
}

func newBreaker() *breaker { return &breaker{cooldown: breakerCooldown} }

// Allow reports whether a request may be sent. In half-open state only one
// caller wins the probe slot; everyone else is refused until the probe's
// outcome is recorded.
func (b *breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// Record feeds one request outcome back. Closed: slide the window and trip
// when the failure rate crosses the threshold. Half-open: a success closes
// the breaker and resets the window and cooldown; a failure re-opens with a
// doubled cooldown. Open: late results from before the trip are ignored.
func (b *breaker) Record(now time.Time, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.window[b.pos] = !ok
		b.pos = (b.pos + 1) % len(b.window)
		if b.filled < len(b.window) {
			b.filled++
		}
		if b.filled < breakerMinSamples {
			return
		}
		fails := 0
		for i := 0; i < b.filled; i++ {
			if b.window[i] {
				fails++
			}
		}
		if float64(fails)/float64(b.filled) >= breakerFailureRate {
			b.trip(now)
		}
	case BreakerHalfOpen:
		b.probing = false
		if ok {
			b.state = BreakerClosed
			b.pos, b.filled = 0, 0
			b.cooldown = breakerCooldown
			return
		}
		b.cooldown = min(2*b.cooldown, breakerMaxCooldown)
		b.trip(now)
	case BreakerOpen:
		// A straggler from before the trip; nothing to learn.
	}
}

func (b *breaker) trip(now time.Time) {
	b.state = BreakerOpen
	b.openedAt = now
	b.opens++
}

// State returns the breaker's current position (open flips to half-open
// lazily in Allow, so a cooled-down open breaker still reports open here).
func (b *breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens returns how many times the breaker has tripped.
func (b *breaker) Opens() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

// Admissible reports whether the breaker would let a request through without
// consuming the half-open probe slot: closed, already half-open, or open
// with the cooldown elapsed. The combiner counts admissible replicas to
// decide between fanning out and degrading to 503.
func (b *breaker) Admissible(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen {
		return now.Sub(b.openedAt) >= b.cooldown
	}
	return true
}

// RemainingCooldown is how long until an open breaker admits a probe
// (zero when not open or already cooled down). Feeds Retry-After.
func (b *breaker) RemainingCooldown(now time.Time) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerOpen {
		return 0
	}
	if rem := b.cooldown - now.Sub(b.openedAt); rem > 0 {
		return rem
	}
	return 0
}
