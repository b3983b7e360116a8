// Package fan runs n independent tasks on a bounded number of goroutines:
// the verifier's first contacts and batch windows, and a figure sweep's
// trials.
package fan

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Out runs task(x, 0), …, task(x, n-1) on min(width, n) goroutines, the
// caller one of them, each claiming the next index from a shared counter, so
// tasks start in index order. At width 1 they run inline, in order, and the
// fan-out allocates nothing. The caller yields after spawning, so a worker
// starts on its P at once (DESIGN.md §6 "Fan-out"). A task's panic stops its
// worker; the others finish, and the caller re-raises the first panic.
func Out[T any](width, n int, x T, task func(T, int)) {
	if width = min(width, n); width <= 1 {
		for t := range n {
			task(x, t)
		}
		return
	}
	f := &fan[T]{x: x, task: task, n: n}
	f.wg.Add(width - 1)
	for range width - 1 {
		go func() {
			defer f.wg.Done()
			f.run()
		}()
	}
	runtime.Gosched()
	f.run()
	f.wg.Wait()
	if f.fault != nil {
		panic(f.fault)
	}
}

// fan is a wide Out's state, its one allocation beside the closures.
type fan[T any] struct {
	x     T
	task  func(T, int)
	n     int
	next  atomic.Int64
	wg    sync.WaitGroup
	once  sync.Once
	fault any
}

// run claims and runs tasks until none is left, recording a panic.
func (f *fan[T]) run() {
	defer func() {
		if v := recover(); v != nil {
			f.once.Do(func() { f.fault = v })
		}
	}()
	for t := int(f.next.Add(1)) - 1; t < f.n; t = int(f.next.Add(1)) - 1 {
		f.task(f.x, t)
	}
}
