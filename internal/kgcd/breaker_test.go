package kgcd

import (
	"testing"
	"time"
)

// feed records n outcomes at one instant.
func feed(b *breaker, now time.Time, n int, ok bool) {
	for i := 0; i < n; i++ {
		b.Record(now, ok)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b, now := newBreaker(), time.Unix(1000, 0)
	if b.State() != BreakerClosed || !b.Allow(now) || !b.Admissible(now) {
		t.Fatal("fresh breaker not closed/allowing")
	}

	// Below breakerMinSamples nothing trips, even at 100% failure.
	feed(b, now, breakerMinSamples-1, false)
	if b.State() != BreakerClosed {
		t.Fatal("tripped below breakerMinSamples")
	}
	// The eighth failure makes the window trustworthy and over the rate: open.
	b.Record(now, false)
	if b.State() != BreakerOpen || b.Opens() != 1 {
		t.Fatalf("state %v opens %d, want open/1", b.State(), b.Opens())
	}
	if b.Allow(now) || b.Admissible(now) {
		t.Fatal("open breaker admitted traffic inside cooldown")
	}
	if rem := b.RemainingCooldown(now); rem != breakerCooldown {
		t.Fatalf("remaining cooldown %v, want %v", rem, breakerCooldown)
	}

	// Cooldown elapses: one probe wins the half-open slot, others refused.
	now = now.Add(breakerCooldown)
	if !b.Admissible(now) {
		t.Fatal("cooled-down breaker not admissible")
	}
	if !b.Allow(now) {
		t.Fatal("probe refused after cooldown")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", b.State())
	}
	if b.Allow(now) {
		t.Fatal("second probe admitted in half-open")
	}

	// Failed probe: reopen with doubled cooldown.
	b.Record(now, false)
	if b.State() != BreakerOpen || b.Opens() != 2 {
		t.Fatalf("state %v opens %d after failed probe", b.State(), b.Opens())
	}
	if rem := b.RemainingCooldown(now); rem != 2*breakerCooldown {
		t.Fatalf("cooldown after failed probe %v, want doubled", rem)
	}
	now = now.Add(breakerCooldown)
	if b.Allow(now) {
		t.Fatal("admitted before doubled cooldown elapsed")
	}

	// Further failed probes keep doubling, up to breakerMaxCooldown.
	for want := 4 * breakerCooldown; ; want = min(2*want, breakerMaxCooldown) {
		now = now.Add(breakerMaxCooldown)
		if !b.Allow(now) {
			t.Fatal("probe refused after the longest cooldown")
		}
		b.Record(now, false)
		if rem := b.RemainingCooldown(now); rem != want {
			t.Fatalf("cooldown %v, want %v", rem, want)
		}
		if want == breakerMaxCooldown {
			break
		}
	}

	// Successful probe: closed, window and cooldown reset.
	now = now.Add(breakerMaxCooldown)
	if !b.Allow(now) {
		t.Fatal("probe refused after the capped cooldown")
	}
	b.Record(now, true)
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after successful probe, want closed", b.State())
	}
	feed(b, now, breakerMinSamples-1, false)
	if b.State() != BreakerClosed {
		t.Fatal("stale window outcomes survived the reset")
	}
	b.Record(now, false)
	if b.State() != BreakerOpen {
		t.Fatal("did not re-trip on a fresh window")
	}
	if rem := b.RemainingCooldown(now); rem != breakerCooldown {
		t.Fatalf("cooldown %v after reset, want base %v", rem, breakerCooldown)
	}
}

func TestBreakerWindowSlides(t *testing.T) {
	b, now := newBreaker(), time.Unix(1000, 0)
	// One failure in three never reaches the 50% trip rate.
	for i := 0; i < 3*breakerWindow; i++ {
		b.Record(now, i%3 != 0)
	}
	if b.State() != BreakerClosed {
		t.Fatal("tripped below the failure rate")
	}
	// A clean window, then failures slide in: 7 of 16 stay under the rate,
	// the eighth is exactly 50% and trips.
	feed(b, now, breakerWindow, true)
	feed(b, now, breakerWindow/2-1, false)
	if b.State() != BreakerClosed {
		t.Fatal("tripped under the failure rate")
	}
	b.Record(now, false)
	if b.State() != BreakerOpen {
		t.Fatal("did not trip at the threshold rate")
	}
}

func TestBreakerIgnoresLateResults(t *testing.T) {
	b, now := newBreaker(), time.Unix(1000, 0)
	feed(b, now, breakerMinSamples, false)
	if b.State() != BreakerOpen {
		t.Fatal("did not trip")
	}
	// Stragglers from before the trip neither close nor extend.
	b.Record(now, true)
	b.Record(now, false)
	if b.State() != BreakerOpen || b.Opens() != 1 {
		t.Fatal("late results moved an open breaker")
	}
}

func TestLatencyRingPercentile(t *testing.T) {
	var r latencyRing
	if r.Percentile(0.95) != 0 {
		t.Fatal("empty ring: want 0")
	}
	for i := 1; i <= 100; i++ { // wraps the 64-slot ring; last 64 survive
		r.Observe(time.Duration(i) * time.Millisecond)
	}
	p50 := r.Percentile(0.5)
	if p50 < 37*time.Millisecond || p50 > 100*time.Millisecond {
		t.Fatalf("p50 %v outside retained window", p50)
	}
	if p95 := r.Percentile(0.95); p95 < p50 {
		t.Fatalf("p95 %v below p50 %v", p95, p50)
	}
	if r.Percentile(1) != 100*time.Millisecond {
		t.Fatalf("max %v, want 100ms", r.Percentile(1))
	}
}
