package kgcd

import (
	"slices"
	"sync"
	"time"
)

// fakeClock is the manually advanced clock the package's tests run on: time
// moves only in advance (or drive), which runs the callbacks that fall due,
// earliest first, on the caller's goroutine. A test blocks on "a timer is
// armed" (awaitTimer), never on elapsed time; a wait that is never armed
// hangs the test until go test's own timeout dumps the goroutines.
type fakeClock struct {
	mu     sync.Mutex
	cond   *sync.Cond // broadcast on every change to timers
	now    time.Time
	timers []*fakeTimer    // pending
	fired  []time.Duration // armed durations of the timers run so far, in order
}

type fakeTimer struct {
	d        time.Duration
	deadline time.Time
	f        func()
}

func newFakeClock() *fakeClock {
	c := &fakeClock{now: time.Unix(1000, 0)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) AfterFunc(d time.Duration, f func()) func() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{d: d, deadline: c.now.Add(d), f: f}
	c.timers = append(c.timers, t)
	c.cond.Broadcast()
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		i := slices.Index(c.timers, t)
		if i < 0 {
			return false
		}
		c.timers = slices.Delete(c.timers, i, i+1)
		c.cond.Broadcast()
		return true
	}
}

// advance moves time forward by d, running every callback that falls due.
func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	end := c.now.Add(d)
	for {
		i := c.earliest(func(t *fakeTimer) bool { return !t.deadline.After(end) })
		if i < 0 {
			break
		}
		t := c.timers[i]
		c.timers = slices.Delete(c.timers, i, i+1)
		c.now = t.deadline
		c.fired = append(c.fired, t.d)
		c.mu.Unlock()
		t.f()
		c.mu.Lock()
	}
	c.now = end
}

// earliest returns the index of the pending timer with the soonest deadline
// among those ok accepts, −1 when there is none. Callers hold c.mu.
func (c *fakeClock) earliest(ok func(*fakeTimer) bool) int {
	best := -1
	for i, t := range c.timers {
		if ok(t) && (best < 0 || t.deadline.Before(c.timers[best].deadline)) {
			best = i
		}
	}
	return best
}

// awaitTimer blocks until a timer armed at the current instant for d is
// pending — the code under test has reached that wait.
func (c *fakeClock) awaitTimer(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.earliest(func(t *fakeTimer) bool { return t.d == d && t.deadline.Equal(c.now.Add(d)) }) < 0 {
		c.cond.Wait()
	}
}

// awaitPending blocks until exactly k timers armed for d are pending.
func (c *fakeClock) awaitPending(d time.Duration, k int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		n := 0
		for _, t := range c.timers {
			if t.d == d {
				n++
			}
		}
		if n == k {
			return
		}
		c.cond.Wait()
	}
}

// drive runs f on its own goroutine and, until it returns, elapses every wait
// of at most limit as soon as it is armed. With limit below shareTimeout that
// is backoffs and refresh retries but no deadline, so f's waits cost
// no wall time and the sequence of advances depends only on what f arms.
func (c *fakeClock) drive(limit time.Duration, f func()) {
	done := false
	go func() {
		f()
		c.mu.Lock()
		defer c.mu.Unlock()
		done = true
		c.cond.Broadcast()
	}()
	c.mu.Lock()
	defer c.mu.Unlock()
	for !done {
		i := c.earliest(func(t *fakeTimer) bool { return t.d <= limit })
		if i < 0 {
			c.cond.Wait()
			continue
		}
		d := c.timers[i].deadline.Sub(c.now)
		c.mu.Unlock()
		c.advance(d)
		c.mu.Lock()
	}
}
