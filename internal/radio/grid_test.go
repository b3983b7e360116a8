package radio

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mccls/internal/mobility"
	"mccls/internal/sim"
)

// appendNeighborsNaive appends node's neighbor set by the all-pairs scan
// the spatial index replaced: the differential oracle the grid is pinned
// against, and the baseline of BenchmarkNeighbors.
func appendNeighborsNaive(m *Medium, node int, buf []int) []int {
	if m.down[node] {
		return buf
	}
	p := m.Position(node)
	for other := 0; other < m.Nodes(); other++ {
		if m.hears(node, p, other) {
			buf = append(buf, other)
		}
	}
	return buf
}

// gridTestMedium builds a medium over a random-waypoint field.
func gridTestMedium(seed int64, n int, width, height float64) (*sim.Simulator, *Medium) {
	s := sim.New(seed)
	mob := mobility.NewRandomWaypoint(mobility.RandomWaypointConfig{
		Width: width, Height: height, MaxSpeed: 20,
	}, n, 300*time.Second, rand.New(rand.NewSource(seed)))
	return s, New(s, mob, Config{Range: 250})
}

// checkGridVsNaive compares the indexed and naive neighbor sets of every
// node at the medium's current virtual time. The indexed queries run back to
// back, one sender after another, so an audience bit one query left set
// would surface in the next one's set.
func checkGridVsNaive(t *testing.T, m *Medium, label string) {
	t.Helper()
	grids := make([][]int, m.Nodes())
	for node := range grids {
		grids[node] = m.AppendNeighbors(node, nil)
	}
	for node, grid := range grids {
		if naive := appendNeighborsNaive(m, node, nil); !slices.Equal(grid, naive) {
			t.Fatalf("%s node %d: grid=%v naive=%v", label, node, grid, naive)
		}
	}
}

// TestNeighborsGridMatchesNaive is the differential test of the spatial
// index: under moving nodes and powered-down radios, the grid must return
// exactly the naive all-pairs scan's neighbor sets.
func TestNeighborsGridMatchesNaive(t *testing.T) {
	s, m := gridTestMedium(7, 60, 1500, 300)

	// Two dead radios.
	m.SetNodeDown(3, true)
	m.SetNodeDown(41, true)

	for _, target := range []time.Duration{0, 3 * time.Second, 9999 * time.Millisecond,
		30 * time.Second, 77 * time.Second, 149 * time.Second, 151 * time.Second, 299 * time.Second} {
		s.Run(target)
		checkGridVsNaive(t, m, fmt.Sprintf("t=%v", target))
	}

	// Flip the churned radios and re-check inside the same epoch: the down
	// flags are evaluated at query time, not bake into the index.
	m.SetNodeDown(3, false)
	m.SetNodeDown(12, true)
	checkGridVsNaive(t, m, "after churn flip")

	// Node counts at the edges of the audience bitset's 64-id words, dense
	// enough that audiences straddle words; a warm query allocates nothing.
	for _, n := range []int{63, 64, 65, 128, 129} {
		s, m := gridTestMedium(int64(n), n, 800, 300)
		for _, target := range []time.Duration{0, 41 * time.Second} {
			s.Run(target)
			checkGridVsNaive(t, m, fmt.Sprintf("n=%d t=%v", n, target))
		}
		buf := m.AppendNeighbors(n-1, make([]int, 0, n))
		if allocs := testing.AllocsPerRun(20, func() { buf = m.AppendNeighbors(n-1, buf[:0]) }); allocs != 0 {
			t.Fatalf("n=%d: a warm AppendNeighbors allocates %.1f times, want 0", n, allocs)
		}
	}
}

// TestNeighborsGridHeterogeneousRanges pins grid==naive when nodes carry
// different radio ranges (the symmetric min-range link rule).
func TestNeighborsGridHeterogeneousRanges(t *testing.T) {
	s, m := gridTestMedium(11, 50, 1200, 600)
	rng := rand.New(rand.NewSource(13))
	for node := 0; node < m.Nodes(); node++ {
		m.SetNodeRange(node, 100+rng.Float64()*300) // 100–400 m, straddling the 250 m cell size
	}
	for _, target := range []time.Duration{0, 17 * time.Second, 120 * time.Second} {
		s.Run(target)
		checkGridVsNaive(t, m, fmt.Sprintf("hetero t=%v", target))
	}
}

// TestNeighborsGridBoundaryCells places nodes exactly on cell boundaries
// (multiples of the 250 m cell size), at negative coordinates, and at
// exact-range distances, where floor/comparison edge cases live.
func TestNeighborsGridBoundaryCells(t *testing.T) {
	pts := []mobility.Point{
		{X: 0, Y: 0},
		{X: 250, Y: 0},   // exactly one cell east, exactly at range
		{X: 500, Y: 0},   // exactly two cells east
		{X: -250, Y: 0},  // negative cell, exactly at range
		{X: 250, Y: 250}, // diagonal cell corner
		{X: -0.0001, Y: 0},
		{X: 249.9999, Y: 249.9999},
		{X: -500, Y: -500},
	}
	s := sim.New(1)
	m := New(s, &mobility.Static{Points: pts}, Config{Range: 250})
	checkGridVsNaive(t, m, "boundary")
	// An exact-range pair is in range (<=, not <): distance 250 == range.
	if !m.InRange(0, 1) {
		t.Fatal("exact-range pair not in range")
	}
	got := m.AppendNeighbors(0, nil)
	want := appendNeighborsNaive(m, 0, nil)
	if !slices.Equal(got, want) || len(got) == 0 {
		t.Fatalf("boundary neighbors: grid=%v naive=%v", got, want)
	}
}

// TestNeighborsGridInstantFallback drives the medium over a model that
// reports no trajectory information: every query at a new time must force a
// fresh (still exact) rebuild.
func TestNeighborsGridInstantFallback(t *testing.T) {
	s := sim.New(1)
	m := New(s, &movingAway{}, Config{})
	if got := m.AppendNeighbors(0, nil); !slices.Equal(got, []int{1}) {
		t.Fatalf("neighbors at t=0: %v", got)
	}
	before := m.GridStats().Rebuilds
	s.Run(40 * time.Second) // node 1 is now 500 m away
	if got := m.AppendNeighbors(0, nil); len(got) != 0 {
		t.Fatalf("neighbors after recession: %v", got)
	}
	if m.GridStats().Rebuilds == before {
		t.Fatal("instant-only model did not force a rebuild at the new time")
	}
}

// TestAppendNeighborsZeroAlloc pins the hot-path guarantee: inside one
// index epoch, neighbor lookups into a reused buffer do not allocate.
func TestAppendNeighborsZeroAlloc(t *testing.T) {
	s, m := gridTestMedium(3, 200, 2000, 2000)
	s.Run(5 * time.Second)
	buf := make([]int, 0, 256)
	m.AppendNeighbors(0, buf) // warm the grid and scratch buffers
	allocs := testing.AllocsPerRun(200, func() {
		for node := 0; node < 50; node++ {
			buf = m.AppendNeighbors(node, buf[:0])
		}
	})
	if allocs > 0 {
		t.Fatalf("AppendNeighbors allocates %.1f/op inside an epoch, want 0", allocs)
	}
}

// TestBroadcastWaveZeroAlloc pins the full transmit→deliver chain: with
// pooled tx jobs, deliveries and events, a steady-state broadcast wave does
// not allocate. The topology is static so the pools' high-water marks are
// reached during warm-up; under mobility the peak in-flight demand can keep
// growing (denser clusters form), which is amortized pool growth, not a
// per-frame allocation — BenchmarkBroadcastWave reports that case.
func TestBroadcastWaveZeroAlloc(t *testing.T) {
	pts := make([]mobility.Point, 100)
	for i := range pts {
		pts[i] = mobility.Point{X: float64(i%10) * 200, Y: float64(i/10) * 200}
	}
	s := sim.New(5)
	m := New(s, &mobility.Static{Points: pts}, Config{Range: 250})
	payload := any("hello")
	for i := 0; i < m.Nodes(); i++ {
		m.SetHandler(i, func(int, any) {})
	}
	// Warm every pool to its high-water mark: a few full waves.
	for wave := 0; wave < 5; wave++ {
		for i := 0; i < m.Nodes(); i++ {
			m.Broadcast(i, 64, payload)
		}
		s.RunAll()
	}
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < m.Nodes(); i++ {
			m.Broadcast(i, 64, payload)
		}
		s.RunAll()
	})
	if allocs > 0 {
		t.Fatalf("broadcast wave allocates %.1f/op steady-state, want 0", allocs)
	}
}

// FuzzNeighborsGridVsNaive fuzzes the differential property: arbitrary
// seeds, node counts, query times and down masks must never make the
// indexed neighbor sets diverge from the naive scan.
func FuzzNeighborsGridVsNaive(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(3000), uint32(0), uint8(24))
	f.Add(int64(42), uint16(500), uint16(9999), uint32(0b1010), uint8(24))
	f.Add(int64(-7), uint16(65535), uint16(1), uint32(^uint32(0)), uint8(24))
	for _, n := range []uint8{63, 64, 65, 128, 129} { // the audience bitset's word edges
		f.Add(int64(n), uint16(2000), uint16(40000), uint32(1<<7|1<<20), n)
	}
	f.Fuzz(func(t *testing.T, seed int64, t1ms, t2ms uint16, downMask uint32, nodes uint8) {
		n := max(int(nodes), 1)
		s := sim.New(seed)
		mob := mobility.NewRandomWaypoint(mobility.RandomWaypointConfig{
			Width: 1500, Height: 300, MaxSpeed: 20,
		}, n, 70*time.Second, rand.New(rand.NewSource(seed)))
		m := New(s, mob, Config{Range: 250})

		for i := 0; i < 32 && i < n; i++ {
			if downMask&(1<<i) != 0 {
				m.SetNodeDown(i, true)
			}
		}

		times := []time.Duration{
			time.Duration(t1ms) * time.Millisecond,
			time.Duration(t2ms) * time.Millisecond,
		}
		slices.Sort(times)
		for _, target := range times {
			s.Run(target)
			checkGridVsNaive(t, m, fmt.Sprintf("n=%d t=%v", n, target))
		}
	})
}

// benchMedium builds an n-node medium at the paper's node density
// (22500 m² per node) with handlers installed.
func benchMedium(n int) (*sim.Simulator, *Medium) {
	side := 150 * float64(n) // keep width×300 at constant density
	s := sim.New(1)
	mob := mobility.NewRandomWaypoint(mobility.RandomWaypointConfig{
		Width: side, Height: 300, MaxSpeed: 20,
	}, n, 300*time.Second, rand.New(rand.NewSource(1)))
	m := New(s, mob, Config{Range: 250})
	for i := 0; i < n; i++ {
		m.SetHandler(i, func(int, any) {})
	}
	return s, m
}

var benchSizes = []int{20, 100, 500, 2000}

// BenchmarkNeighbors measures one neighbor lookup, naive scan vs spatial
// index, at constant node density.
func BenchmarkNeighbors(b *testing.B) {
	for _, n := range benchSizes {
		for _, mode := range []string{"naive", "grid"} {
			lookup := (*Medium).AppendNeighbors
			if mode == "naive" {
				lookup = appendNeighborsNaive
			}
			b.Run(fmt.Sprintf("%s/n=%d", mode, n), func(b *testing.B) {
				s, m := benchMedium(n)
				s.Run(time.Second)
				buf := make([]int, 0, n)
				buf = lookup(m, 0, buf[:0])
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = lookup(m, i%n, buf[:0])
				}
				_ = buf
			})
		}
	}
}

// BenchmarkBroadcastWave measures a full wave — every node broadcasts once
// and all deliveries drain — at constant node density.
func BenchmarkBroadcastWave(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("grid/n=%d", n), func(b *testing.B) {
			s, m := benchMedium(n)
			payload := any("x")
			for i := 0; i < n; i++ {
				m.Broadcast(i, 64, payload)
			}
			s.RunAll()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for node := 0; node < n; node++ {
					m.Broadcast(node, 64, payload)
				}
				s.RunAll()
			}
		})
	}
}
