package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// trialOf wraps a bare context function as a Trial that records no Obs.
func trialOf[T any](label string, fn func(ctx context.Context) (T, error)) Trial[T] {
	return Trial[T]{Label: label, Run: func(ctx context.Context, _ *Obs) (T, error) {
		return fn(ctx)
	}}
}

// TestResultsInJobOrder is the engine's core invariant: results come back
// in submission order no matter how the scheduler interleaves the workers.
func TestResultsInJobOrder(t *testing.T) {
	const n = 64
	trials := make([]Trial[int], n)
	for i := 0; i < n; i++ {
		i := i
		trials[i] = trialOf(fmt.Sprintf("job%d", i), func(context.Context) (int, error) {
			// Earlier jobs sleep longer, so completion order is roughly
			// the reverse of submission order.
			time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
			return i * i, nil
		})
	}
	got, err := Run(context.Background(), Options{Workers: 8}, trials)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestSerialAndParallelIdentical pins the determinism contract at the pool
// level: any worker count yields the same result slice.
func TestSerialAndParallelIdentical(t *testing.T) {
	mk := func() []Trial[string] {
		trials := make([]Trial[string], 20)
		for i := range trials {
			i := i
			trials[i] = trialOf("t", func(context.Context) (string, error) {
				return fmt.Sprintf("v%d", i), nil
			})
		}
		return trials
	}
	serial, err := Run(context.Background(), Options{Workers: 1}, mk())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 7, 32} {
		par, err := Run(context.Background(), Options{Workers: w}, mk())
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if serial[i] != par[i] {
				t.Fatalf("workers=%d diverged at %d: %q vs %q", w, i, serial[i], par[i])
			}
		}
	}
}

func TestLowestIndexErrorWins(t *testing.T) {
	boom := errors.New("boom")
	trials := []Trial[int]{
		trialOf("ok", func(context.Context) (int, error) { return 1, nil }),
		trialOf("fail-a", func(context.Context) (int, error) {
			time.Sleep(20 * time.Millisecond) // fails *after* fail-b
			return 0, boom
		}),
		trialOf("fail-b", func(context.Context) (int, error) { return 0, errors.New("other") }),
	}
	_, err := Run(context.Background(), Options{Workers: 3}, trials)
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the lowest-index failure (fail-a)", err)
	}
	if !strings.Contains(err.Error(), "fail-a") {
		t.Fatalf("error does not name the failing trial: %v", err)
	}
}

func TestFailureCancelsSiblings(t *testing.T) {
	var started atomic.Int32
	trials := make([]Trial[int], 100)
	trials[0] = trialOf("fail", func(context.Context) (int, error) {
		return 0, errors.New("early failure")
	})
	for i := 1; i < len(trials); i++ {
		trials[i] = trialOf("slow", func(ctx context.Context) (int, error) {
			started.Add(1)
			<-ctx.Done()
			return 0, ctx.Err()
		})
	}
	start := time.Now()
	_, err := Run(context.Background(), Options{Workers: 2}, trials)
	if err == nil {
		t.Fatal("want error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("pool did not drain promptly after failure (%v)", elapsed)
	}
	if n := started.Load(); n >= 99 {
		t.Fatalf("cancellation did not stop job feeding (%d siblings ran)", n)
	}
}

func TestPanicBecomesJobError(t *testing.T) {
	trials := []Trial[int]{
		trialOf("ok", func(context.Context) (int, error) { return 7, nil }),
		trialOf("crash", func(context.Context) (int, error) { panic("scenario exploded") }),
	}
	_, err := Run(context.Background(), Options{Workers: 2}, trials)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Index != 1 || pe.Label != "crash" || pe.Value != "scenario exploded" {
		t.Fatalf("panic error misattributed: %+v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic error lost the stack trace")
	}
}

func TestPerTrialTimeout(t *testing.T) {
	trials := []Trial[int]{
		trialOf("fast", func(context.Context) (int, error) { return 1, nil }),
		trialOf("hung", func(ctx context.Context) (int, error) {
			<-ctx.Done() // a context-aware trial notices the deadline
			return 0, ctx.Err()
		}),
	}
	start := time.Now()
	_, err := Run(context.Background(), Options{Workers: 2, Timeout: 30 * time.Millisecond}, trials)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout did not bound the trial (%v)", elapsed)
	}
}

func TestCallerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	trials := []Trial[int]{
		trialOf("never", func(ctx context.Context) (int, error) {
			<-ctx.Done()
			return 0, ctx.Err()
		}),
	}
	if _, err := Run(ctx, Options{}, trials); err == nil {
		t.Fatal("pre-cancelled context must fail the batch")
	}
}

func TestProgressObservability(t *testing.T) {
	const n = 10
	trials := make([]Trial[int], n)
	for i := range trials {
		i := i
		trials[i] = Trial[int]{
			Label: fmt.Sprintf("trial%d", i),
			Run: func(_ context.Context, obs *Obs) (int, error) {
				obs.Events = uint64(100 * (i + 1))
				return i, nil
			},
		}
	}
	var updates []Update
	_, err := Run(context.Background(), Options{
		Workers:  4,
		Progress: func(u Update) { updates = append(updates, u) }, // serialized by the pool
	}, trials)
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) != n {
		t.Fatalf("got %d updates, want %d", len(updates), n)
	}
	seen := map[int]bool{}
	for k, u := range updates {
		if u.Done != k+1 || u.Total != n {
			t.Fatalf("update %d has Done=%d Total=%d", k, u.Done, u.Total)
		}
		if u.Events != uint64(100*(u.Index+1)) {
			t.Fatalf("update for trial %d lost its event count: %+v", u.Index, u)
		}
		if u.Wall <= 0 {
			t.Fatalf("update missing wall time: %+v", u)
		}
		if u.Events > 0 && u.EventsPerSec <= 0 {
			t.Fatalf("events recorded but throughput missing: %+v", u)
		}
		seen[u.Index] = true
	}
	if len(seen) != n {
		t.Fatalf("updates cover %d distinct trials, want %d", len(seen), n)
	}
}

func TestEmptyBatch(t *testing.T) {
	got, err := Run[int](context.Background(), Options{}, nil)
	if err != nil || got != nil {
		t.Fatalf("empty batch: got %v, %v", got, err)
	}
}

func TestDefaultWorkerCount(t *testing.T) {
	// Workers <= 0 must still run everything (defaults to GOMAXPROCS).
	trials := []Trial[int]{
		trialOf("a", func(context.Context) (int, error) { return 1, nil }),
		trialOf("b", func(context.Context) (int, error) { return 2, nil }),
	}
	got, err := Run(context.Background(), Options{Workers: -1}, trials)
	if err != nil || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, %v", got, err)
	}
}
