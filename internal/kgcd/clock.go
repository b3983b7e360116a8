package kgcd

import (
	"context"
	"time"
)

// clock is the package's one source of time: every timestamp is Now, every
// wait (backoff, refresh retry) and every deadline an AfterFunc. wallClock
// is the only shipped implementation; tests put a manually advanced fake in
// the unexported clk fields.
type clock interface {
	Now() time.Time
	// AfterFunc calls f once d has elapsed, unless stop is called first.
	AfterFunc(d time.Duration, f func()) (stop func() bool)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) AfterFunc(d time.Duration, f func()) func() bool { return time.AfterFunc(d, f).Stop }

// withTimeout is context.WithTimeout on clk: the cause of the child's
// cancellation is context.DeadlineExceeded once d has elapsed.
func withTimeout(ctx context.Context, clk clock, d time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancelCause(ctx)
	stop := clk.AfterFunc(d, func() { cancel(context.DeadlineExceeded) })
	return ctx, func() { stop(); cancel(context.Canceled) }
}

// sleep waits for d on clk, or for ctx to end, whichever comes first.
func sleep(ctx context.Context, clk clock, d time.Duration) error {
	wait, cancel := withTimeout(ctx, clk, d)
	defer cancel()
	<-wait.Done()
	return context.Cause(ctx) // nil unless ctx itself ended
}
