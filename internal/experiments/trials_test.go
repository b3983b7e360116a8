package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mccls/internal/routing"
)

// sent is a trial result carrying v in the one counter these tests read.
func sent(v int) Result { return Result{Stats: routing.Stats{DataSent: uint64(v)}} }

// labelled returns n labels "t0", …, "t(n-1)".
func labelled(n int) []string {
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("t%d", i)
	}
	return labels
}

// TestResultsInJobOrder is the pool's core invariant: results come back in
// trial order no matter how the scheduler interleaves the workers.
func TestResultsInJobOrder(t *testing.T) {
	const n = 64
	got, err := SweepConfig{Workers: 8}.runTrials(labelled(n), func(_ context.Context, i int) (Result, error) {
		// Earlier trials sleep longer, so completion order is roughly the
		// reverse of trial order.
		time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
		return sent(i * i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range got {
		if s.DataSent != uint64(i*i) {
			t.Fatalf("result[%d] = %d, want %d", i, s.DataSent, i*i)
		}
	}
}

// TestSerialAndParallelIdentical pins the determinism contract at the pool
// level: any worker count yields the same results as Workers 1.
func TestSerialAndParallelIdentical(t *testing.T) {
	trial := func(_ context.Context, i int) (Result, error) { return sent(3*i + 1), nil }
	serial, err := SweepConfig{Workers: 1}.runTrials(labelled(20), trial)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 7, 32} {
		par, err := SweepConfig{Workers: w}.runTrials(labelled(20), trial)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if serial[i] != par[i] {
				t.Fatalf("workers=%d diverged at %d: %+v vs %+v", w, i, serial[i], par[i])
			}
		}
	}
}

func TestLowestIndexErrorWins(t *testing.T) {
	boom := errors.New("boom")
	labels := []string{"ok", "fail-a", "fail-b"}
	_, err := SweepConfig{Workers: 3}.runTrials(labels, func(ctx context.Context, i int) (Result, error) {
		switch i {
		case 1:
			time.Sleep(20 * time.Millisecond) // fails after fail-b
			return Result{}, boom
		case 2:
			return Result{}, errors.New("other")
		}
		return sent(1), nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the lowest-index failure (fail-a)", err)
	}
	if !strings.Contains(err.Error(), "fail-a") {
		t.Fatalf("error does not name the failing trial: %v", err)
	}
}

// TestFailureCancelsSiblings: the first failure cancels the trial running
// beside it, and the trials not yet started never run.
func TestFailureCancelsSiblings(t *testing.T) {
	var started atomic.Int32
	start := time.Now()
	_, err := SweepConfig{Workers: 2}.runTrials(labelled(100), func(ctx context.Context, i int) (Result, error) {
		if i == 0 {
			return Result{}, errors.New("early failure")
		}
		started.Add(1)
		<-ctx.Done()
		return Result{}, ctx.Err()
	})
	if err == nil || errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the early failure", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("pool did not drain promptly after failure (%v)", elapsed)
	}
	if n := started.Load(); n > 1 {
		t.Fatalf("%d siblings started, want at most the one beside the failure", n)
	}
}

func TestPanicBecomesJobError(t *testing.T) {
	_, err := SweepConfig{Workers: 2}.runTrials([]string{"ok", "crash"}, func(_ context.Context, i int) (Result, error) {
		if i == 1 {
			panic("scenario exploded")
		}
		return sent(7), nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	for _, want := range []string{"trial 1 (crash)", "panicked: scenario exploded", "TestPanicBecomesJobError"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("panic error lacks %q (the trial, the value or its stack): %v", want, err)
		}
	}
}

func TestPerTrialTimeout(t *testing.T) {
	start := time.Now()
	_, err := SweepConfig{Workers: 2, TrialTimeout: 30 * time.Millisecond}.runTrials([]string{"fast", "hung"},
		func(ctx context.Context, i int) (Result, error) {
			if i == 0 {
				return sent(1), nil
			}
			<-ctx.Done() // a context-aware trial notices the deadline
			return Result{}, ctx.Err()
		})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout did not bound the trial (%v)", elapsed)
	}
}

func TestProgressObservability(t *testing.T) {
	const n = 10
	var updates []TrialUpdate
	cfg := SweepConfig{
		Workers:  4,
		Progress: func(u TrialUpdate) { updates = append(updates, u) }, // serialized by the pool
	}
	_, err := cfg.runTrials(labelled(n), func(_ context.Context, i int) (Result, error) {
		return Result{Events: uint64(100 * (i + 1))}, nil
	})
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
		if u.Label != fmt.Sprintf("t%d", u.Index) || u.Events != uint64(100*(u.Index+1)) {
			t.Fatalf("update for trial %d lost its label or event count: %+v", u.Index, u)
		}
		if u.Wall <= 0 {
			t.Fatalf("update missing wall time: %+v", u)
		}
		if u.EventsPerSec <= 0 {
			t.Fatalf("events recorded but throughput missing: %+v", u)
		}
		seen[u.Index] = true
	}
	if len(seen) != n {
		t.Fatalf("updates cover %d distinct trials, want %d", len(seen), n)
	}
}

func TestEmptyBatch(t *testing.T) {
	got, err := SweepConfig{}.runTrials(nil, func(context.Context, int) (Result, error) {
		t.Error("a trial ran in an empty batch")
		return Result{}, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: got %v, %v", got, err)
	}
}

// TestDefaultWorkerCount: Workers ≤ 0 still runs everything (GOMAXPROCS).
func TestDefaultWorkerCount(t *testing.T) {
	for _, w := range []int{0, -1} {
		got, err := SweepConfig{Workers: w}.runTrials(labelled(2), func(_ context.Context, i int) (Result, error) {
			return sent(i + 1), nil
		})
		if err != nil || got[0].DataSent != 1 || got[1].DataSent != 2 {
			t.Fatalf("workers=%d: got %v, %v", w, got, err)
		}
	}
}
