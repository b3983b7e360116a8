package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The throughput median is taken over rounds: equal slices of the measured
// interval, about roundOps operations each and at most maxRounds of them.
// Rounds are short so that a stall (the host taking the vCPU away for some
// milliseconds) spoils the few rounds it falls in and not the median; they
// hold several operations so that a round sees the workload's mix (one
// batch_flood window in eight is forged).
const (
	roundOps  = 16
	minRounds = 8
	maxRounds = 1024
)

// rounds is how many rounds the pass is cut into; with fewer than minRounds
// rounds' worth of operations (the simulator workloads), each operation is
// a round.
func (r *recorder) rounds() int {
	n := min(len(r.samples)/roundOps, maxRounds)
	if n < minRounds {
		return len(r.samples)
	}
	return n
}

// sample is one closed-loop operation: when it finished (offset from the
// start of the measured interval), how long the caller waited by the wall
// clock and, once the pass is over, by the reference clock (refclock.go),
// how much work it completed, and whether its latency counts toward
// op_p50_ms.
type sample struct {
	end   time.Duration
	dur   time.Duration
	ref   time.Duration
	work  float64
	gated bool
}

func wallClock(s sample) time.Duration { return s.dur }
func refClock(s sample) time.Duration  { return s.ref }

// recorder collects the samples of one pass. It is shared by the workload's
// client goroutines.
type recorder struct {
	start   time.Time
	mu      sync.Mutex
	samples []sample
}

// onClock fills in every sample's reference-clock duration from the
// stopped speedometer.
func (r *recorder) onClock(m *speedometer) {
	for i := range r.samples {
		s := &r.samples[i]
		end := r.start.Add(s.end)
		s.ref = m.ref(end.Add(-s.dur), end)
	}
}

func (r *recorder) add(s sample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}

// latenciesMS returns the sorted gated latencies in milliseconds, on the
// clock that of reads from a sample.
func (r *recorder) latenciesMS(of func(sample) time.Duration) []float64 {
	out := make([]float64, 0, len(r.samples))
	for _, s := range r.samples {
		if s.gated {
			out = append(out, float64(of(s))/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// workPerSecond is the median over rounds of (work completed) / (reference
// time the clients spent waiting for it): the measured interval is cut into
// rounds() equal slices by completion time, and each slice's rate is
// clients·Σwork/Σref. Dividing by waiting time rather than elapsed time
// keeps the benchmark's own bookkeeping between operations out of the
// figure.
func (r *recorder) workPerSecond(clients int) float64 {
	rounds := r.rounds()
	if rounds == 0 {
		return 0
	}
	var last time.Duration
	for _, s := range r.samples {
		last = max(last, s.end)
	}
	work := make([]float64, rounds)
	busy := make([]float64, rounds)
	for i, s := range r.samples {
		k := i // one operation per round
		if rounds < len(r.samples) {
			k = min(int(int64(s.end)*int64(rounds)/int64(last+1)), rounds-1)
		}
		work[k] += s.work
		busy[k] += s.ref.Seconds()
	}
	var rates []float64
	for k := range work {
		if busy[k] > 0 {
			rates = append(rates, float64(clients)*work[k]/busy[k])
		}
	}
	return median(rates)
}

// percentile returns the p-quantile (0..1) of sorted values by linear
// interpolation between closest ranks; NaN for no values.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, n-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// timed is one call a micro-driver times, and the name its column goes by.
type timed struct {
	name string
	call func(i int)
}

// timings holds, per call name, the nanoseconds of each of n rounds.
type timings struct {
	n    int
	cols map[string][]float64
}

// interleave times each call once per round, round after round. On a shared
// machine whose speed shifts from one second to the next, calls timed in
// the same round saw the same machine, so their sums and differences are
// taken per round (perRound) and the median over rounds reported.
func interleave(n int, calls ...timed) timings {
	t := timings{n: n, cols: make(map[string][]float64, len(calls))}
	for _, c := range calls {
		t.cols[c.name] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for _, c := range calls {
			start := time.Now()
			c.call(i)
			t.cols[c.name][i] = float64(time.Since(start))
		}
	}
	return t
}

// perRound applies f to the values of each round and returns the median.
func (t timings) perRound(f func(at func(name string) float64) float64) float64 {
	vals := make([]float64, t.n)
	for i := range vals {
		vals[i] = f(func(name string) float64 { return t.cols[name][i] })
	}
	return median(vals)
}

// timeCalls runs f n times, timing each call on its own, and returns the
// median duration in nanoseconds. Medians, not means: on a shared box the
// mean of a micro-driver moves with every preemption.
func timeCalls(n int, f func(i int)) float64 {
	return median(interleave(n, timed{call: f}).cols[""])
}

// timeBatches is timeCalls for calls too short to time singly: each sample
// is `batch` back-to-back calls, and the result is per call.
func timeBatches(n, batch int, f func()) float64 {
	return timeCalls(n, func(int) {
		for k := 0; k < batch; k++ {
			f()
		}
	}) / float64(batch)
}
