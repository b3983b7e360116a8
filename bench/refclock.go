package main

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// The reference clock.
//
// The boxes this benchmark runs on are small guests of shared hosts whose
// cores change speed under them: for a quarter of a second or for minutes
// at a time every instruction takes 1.0, 1.2 or 1.27 times as long (36.9,
// 44.3 and 46.9 µs for the same 1000 multiplications, with nothing else
// running in the guest). A wall-clock median over a 10-second run reports
// whichever state held for most of that run, and runs of the same code
// spread by 30 to 60 %.
//
// So every gated time is taken on a reference clock instead. While a run
// lasts, a speedometer goroutine times a fixed calibration burst every
// calEvery: code of the benchmark's own, which no change to the repository
// can speed up. Afterwards each timed interval is scaled, cell by cell, by
// refBurst over the burst time measured while it ran. The result is the
// time the interval would have taken on a machine on which the burst takes
// exactly refBurst, whatever states the host went through. The burst is
// 4-limb Montgomery multiplications (MULQ/ADCQ chains, no memory), the
// instruction mix of the pairing code, so it speeds up and slows down with
// it: a busy loop on one vCPU and the speedometer on the other agree within
// 0.1 % per quarter second. Wall-clock values are printed next to the
// reference-clock ones in every report line.
const (
	calMuls  = 1000                  // multiplications in one calibration burst
	refBurst = 37 * time.Microsecond // one burst on the reference machine
	calEvery = 2 * time.Millisecond  // the speedometer's period: ~2 % of one vCPU
	calCell  = 20 * time.Millisecond // the machine's speed is the median burst of each cell
)

// speedometer records the machine's speed from start to stop.
type speedometer struct {
	epoch time.Time
	quit  chan struct{}
	done  sync.WaitGroup
	once  sync.Once
	at    []time.Duration // when each burst ended, since epoch
	burst []time.Duration
	cells []float64 // after stop: refBurst / median burst, per calCell since epoch
}

func startSpeedometer() *speedometer {
	m := &speedometer{epoch: time.Now(), quit: make(chan struct{})}
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		tick := time.NewTicker(calEvery)
		defer tick.Stop()
		for {
			d := calibrationBurst()
			m.at, m.burst = append(m.at, time.Since(m.epoch)), append(m.burst, d)
			select {
			case <-m.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// stop ends the recording and reduces it to one scale per cell: the median
// of the cell's bursts, because preemption only ever adds time to a burst.
// A cell the speedometer never ran in takes its neighbour's scale. Calling
// stop again does nothing.
func (m *speedometer) stop() { m.once.Do(m.reduce) }

func (m *speedometer) reduce() {
	close(m.quit)
	m.done.Wait()
	d := calibrationBurst() // the series reaches to the end of the last interval
	m.at, m.burst = append(m.at, time.Since(m.epoch)), append(m.burst, d)

	byCell := make([][]float64, m.at[len(m.at)-1]/calCell+1)
	for i, at := range m.at {
		byCell[at/calCell] = append(byCell[at/calCell], float64(m.burst[i]))
	}
	m.cells = make([]float64, len(byCell))
	for k, bursts := range byCell {
		if len(bursts) > 0 {
			m.cells[k] = float64(refBurst) / median(bursts)
		} else if k > 0 {
			m.cells[k] = m.cells[k-1]
		}
	}
	for k := len(m.cells) - 2; k >= 0; k-- { // leading cells, had the first burst been held up
		if m.cells[k] == 0 {
			m.cells[k] = m.cells[k+1]
		}
	}
}

// ref converts the wall-clock interval [from, to] into reference time:
// each cell's share of it, scaled by the cell's speed. Call it after stop.
func (m *speedometer) ref(from, to time.Time) time.Duration {
	a, b := max(from.Sub(m.epoch), 0), to.Sub(m.epoch)
	var sum float64
	for a < b {
		k, end := int(a/calCell), b
		if k < len(m.cells)-1 {
			end = min(b, time.Duration(k+1)*calCell)
		} else {
			k = len(m.cells) - 1
		}
		sum += float64(end-a) * m.cells[k]
		a = end
	}
	return time.Duration(sum)
}

func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

// calP is the BN254 base field modulus and calInv = -calP^-1 mod 2^64; any
// odd modulus would do.
var calP = [4]uint64{0x3c208c16d87cfd47, 0x97816a916871ca8d, 0xb85045b68181585d, 0x30644e72e131a029}

const calInv = 0x87d20782e4866389

// calSink keeps the compiler from dropping the burst's multiplications.
var calSink atomic.Uint64

func calibrationBurst() time.Duration {
	x := [4]uint64{1, 2, 3, 4}
	y := [4]uint64{5, 6, 7, 8}
	t := time.Now()
	for i := 0; i < calMuls; i++ {
		x = calMul(&x, &y)
	}
	d := time.Since(t)
	calSink.Store(x[0])
	return max(d, 1)
}

// calMul is a CIOS Montgomery multiplication without the final subtraction
// (only its timing matters), written out here so that it never changes with
// the repository's own field arithmetic.
func calMul(x, y *[4]uint64) [4]uint64 {
	var t [5]uint64
	for i := 0; i < 4; i++ {
		var c, hi, lo, cc uint64
		for j := 0; j < 4; j++ {
			hi, lo = bits.Mul64(x[j], y[i])
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			hi += cc
			t[j], c = lo, hi
		}
		t4 := t[4] + c
		m := t[0] * calInv
		hi, lo = bits.Mul64(m, calP[0])
		_, cc = bits.Add64(lo, t[0], 0)
		c = hi + cc
		for j := 1; j < 4; j++ {
			hi, lo = bits.Mul64(m, calP[j])
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			hi += cc
			t[j-1], c = lo, hi
		}
		t[3], cc = bits.Add64(t4, c, 0)
		t[4] = cc
	}
	return [4]uint64{t[0], t[1], t[2], t[3]}
}
