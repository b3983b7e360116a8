// Package runner is a bounded worker-pool engine for deterministic trial
// batches. A trial is any function of a context; the pool fans a batch out
// over N workers and returns the results in job order regardless of how the
// scheduler interleaved them, so a batch of independent, seed-deterministic
// simulations produces bit-identical output at any worker count.
//
// The engine adds the operational guarantees a long sweep needs:
//
//   - context cancellation (the whole batch aborts promptly),
//   - a per-trial wall-clock deadline,
//   - panic recovery (a crashing trial becomes that job's error instead of
//     taking down the process), and
//   - per-trial observability (wall time, events processed, events/sec)
//     through an optional progress callback.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Options configures a batch run. The zero value is a sensible default:
// GOMAXPROCS workers, no per-trial deadline, no progress reporting.
type Options struct {
	// Workers bounds the pool (default GOMAXPROCS; 1 forces serial
	// execution, useful for determinism baselines).
	Workers int
	// Timeout is the per-trial wall-clock deadline (0 = none). A trial
	// only observes it through the context it receives, so trials must be
	// context-aware (the experiment plane's RunFigure hands it to the
	// simulator's interrupt hook).
	Timeout time.Duration
	// Progress, when non-nil, receives one Update per finished trial.
	// Calls are serialized; the callback must not block for long or it
	// stalls the pool.
	Progress func(Update)
}

// Update describes one finished trial.
type Update struct {
	// Index is the trial's position in the submitted batch; Done counts
	// finished trials including this one, out of Total.
	Index, Done, Total int
	Label              string
	Err                error
	// Wall is the trial's wall-clock duration; Events is whatever the
	// trial recorded in its Obs (simulator events for scenario trials),
	// and EventsPerSec the resulting throughput (0 when Events is 0).
	Wall         time.Duration
	Events       uint64
	EventsPerSec float64
}

// Obs is the per-trial observability slot: the trial fills it in (e.g. with
// the simulator's processed-event count) and the pool folds it into the
// progress Update.
type Obs struct {
	Events uint64
}

// Trial is one unit of work. Run must be self-contained: it may only touch
// state it owns (or read-only shared state), since trials execute
// concurrently.
type Trial[T any] struct {
	Label string
	Run   func(ctx context.Context, obs *Obs) (T, error)
}

// PanicError is the per-job error a recovered trial panic converts into.
type PanicError struct {
	Index int
	Label string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("trial %d (%s) panicked: %v", e.Index, e.Label, e.Value)
}

// Run executes the batch over the worker pool and returns results in job
// order. On failure it returns the error of the lowest-index failing trial
// (wrapped with the trial's index and label); remaining trials are
// cancelled promptly via the shared context. A nil error guarantees every
// slot of the result slice is a successful trial result.
func Run[T any](ctx context.Context, opts Options, trials []Trial[T]) ([]T, error) {
	n := len(trials)
	if n == 0 {
		return nil, nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	// Cancelling on the first failure drains the pool quickly; results
	// stay deterministic because on success no cancellation happens and on
	// failure the lowest-index error is reported regardless of which trial
	// tripped the cancel.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]T, n)
	errs := make([]error, n)
	jobs := make(chan int)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // serializes progress callbacks and the done counter
		done int
	)

	runOne := func(i int) {
		start := time.Now()
		var obs Obs
		tctx := ctx
		if opts.Timeout > 0 {
			var tcancel context.CancelFunc
			tctx, tcancel = context.WithTimeout(ctx, opts.Timeout)
			defer tcancel()
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					errs[i] = &PanicError{Index: i, Label: trials[i].Label, Value: r, Stack: debug.Stack()}
				}
			}()
			results[i], errs[i] = trials[i].Run(tctx, &obs)
		}()
		if errs[i] != nil {
			cancel()
		}
		wall := time.Since(start)
		mu.Lock()
		done++
		if opts.Progress != nil {
			u := Update{
				Index: i, Done: done, Total: n,
				Label: trials[i].Label, Err: errs[i],
				Wall: wall, Events: obs.Events,
			}
			if secs := wall.Seconds(); secs > 0 && obs.Events > 0 {
				u.EventsPerSec = float64(obs.Events) / secs
			}
			opts.Progress(u)
		}
		mu.Unlock()
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				runOne(i)
			}
		}()
	}
	fed := 0
feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
			fed++
		case <-ctx.Done():
			// A trial failed (or the caller cancelled): stop feeding.
			// Unfed jobs keep their nil error; the scan below prefers
			// real failures over cancellation fallout.
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	// Report the lowest-index genuine failure; fall back to the lowest
	// cancellation error (caller-initiated aborts land here).
	var cancelled error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) {
			if cancelled == nil {
				cancelled = fmt.Errorf("runner: trial %d (%s): %w", i, trials[i].Label, err)
			}
			continue
		}
		return nil, fmt.Errorf("runner: trial %d (%s): %w", i, trials[i].Label, err)
	}
	if cancelled != nil {
		return nil, cancelled
	}
	if fed < n {
		// The caller's context died but every fed trial still returned
		// success (trials are not obliged to observe cancellation): the
		// batch is nonetheless incomplete.
		return nil, fmt.Errorf("runner: batch aborted after %d/%d trials: %w", fed, n, context.Cause(ctx))
	}
	return results, nil
}
