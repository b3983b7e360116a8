package radio

import (
	"math"
	"time"

	"mccls/internal/mobility"
	"mccls/internal/sim"
)

// grid is a uniform spatial index over node positions, the structure that
// turns the medium's O(n) neighbor scan into an O(degree) cell lookup. It
// is rebuilt lazily once per virtual-time epoch: at rebuild time each node
// is inserted into every cell its piecewise-linear trajectory can touch
// during the epoch (the bounding box of its legs over the window), so a
// query at any instant inside the epoch only has to scan the cells within
// radio range of the query point and then confirm candidates against exact
// current positions. Candidate sets are supersets by construction, which
// makes grid results bit-identical to the naive all-pairs scan — pinned by
// TestNeighborsGridMatchesNaive and FuzzNeighborsGridVsNaive.
//
// Cell size defaults to the radio range, so a query visits at most the 3×3
// block around its point; models that report no trajectory information
// (degenerate Leg results) degrade to per-instant rebuilds, which is still
// exact, just slower.
type grid struct {
	mob      mobility.Model
	cellSize float64
	epoch    time.Duration

	built              bool
	validFrom, validTo sim.Time

	cells map[uint64]int // packed cell coordinate -> index into lists
	lists [][]int32      // per-cell ascending node ids; reused across rebuilds
	used  int            // lists in use by the current build

	stamp    []uint32 // per-node dedupe marks for multi-cell membership
	stampGen uint32

	stats GridStats
}

// GridStats counts the spatial index's work per run; the benchmark's
// sim_city workload reports it as radio.grid_*, next to the per-lookup
// cost radio.neighbor_query_ns_n500.
type GridStats struct {
	// Rebuilds is how many epochs were (re)indexed; Cells is the occupied
	// cell count of the last build and MaxOccupancy the largest single-cell
	// population ever seen (the worst-case query constant).
	Rebuilds     uint64 `json:"rebuilds"`
	Cells        int    `json:"cells"`
	MaxOccupancy int    `json:"max_occupancy"`
	// Queries counts neighbor lookups served by the index; Candidates sums
	// the cell entries they scanned, so Candidates/Queries is the effective
	// per-query work the index pays instead of n.
	Queries    uint64 `json:"queries"`
	Candidates uint64 `json:"candidates"`
}

func newGrid(mob mobility.Model, cellSize float64, epoch time.Duration) *grid {
	if epoch <= 0 {
		epoch = time.Second
	}
	return &grid{
		mob:      mob,
		cellSize: cellSize,
		epoch:    epoch,
		cells:    make(map[uint64]int),
		stamp:    make([]uint32, mob.Nodes()),
	}
}

// cellKey packs signed cell coordinates into one map key.
func cellKey(cx, cy int32) uint64 {
	return uint64(uint32(cx))<<32 | uint64(uint32(cy))
}

func (g *grid) cellOf(v float64) int32 {
	return int32(math.Floor(v / g.cellSize))
}

// ensure rebuilds the index when now falls outside the window the current
// build covers.
func (g *grid) ensure(now sim.Time) {
	if g.built && now >= g.validFrom && now <= g.validTo {
		return
	}
	g.rebuild(now)
}

// rebuild indexes every node's reachable area over [now, now+epoch]. A
// model without trajectory information (a degenerate Leg) shrinks the
// window to the single instant now, forcing a rebuild per distinct query
// time — exact, but without the epoch amortization.
func (g *grid) rebuild(now sim.Time) {
	clear(g.cells)
	g.used = 0
	windowEnd := now + g.epoch
	instantOnly := false

	n := g.mob.Nodes()
	for node := 0; node < n; node++ {
		minP, maxP, ok := trajectoryBounds(g.mob, node, now, windowEnd)
		if !ok {
			instantOnly = true
		}
		cx0, cy0 := g.cellOf(minP.X), g.cellOf(minP.Y)
		cx1, cy1 := g.cellOf(maxP.X), g.cellOf(maxP.Y)
		for cx := cx0; cx <= cx1; cx++ {
			for cy := cy0; cy <= cy1; cy++ {
				g.insert(cellKey(cx, cy), int32(node))
			}
		}
	}

	g.built = true
	g.validFrom = now
	if instantOnly {
		g.validTo = now
	} else {
		g.validTo = windowEnd
	}
	g.stats.Rebuilds++
	g.stats.Cells = len(g.cells)
	for i := 0; i < g.used; i++ {
		if occ := len(g.lists[i]); occ > g.stats.MaxOccupancy {
			g.stats.MaxOccupancy = occ
		}
	}
}

// insert appends a node to a cell's list, creating (or recycling) the list
// on first touch. Nodes are inserted in ascending id order by rebuild, so
// every list stays sorted.
func (g *grid) insert(key uint64, node int32) {
	idx, ok := g.cells[key]
	if !ok {
		if g.used == len(g.lists) {
			g.lists = append(g.lists, nil)
		}
		idx = g.used
		g.lists[idx] = g.lists[idx][:0]
		g.used++
		g.cells[key] = idx
	}
	g.lists[idx] = append(g.lists[idx], node)
}

// trajectoryBounds returns the bounding box of a node's position over
// [t, tEnd], walked from the mobility model's leg view. ok is false when the
// model reported no trajectory information (the box then only covers the
// instant t).
func trajectoryBounds(mob mobility.Model, node int, t, tEnd sim.Time) (minP, maxP mobility.Point, ok bool) {
	p := mob.Position(node, t)
	minP, maxP = p, p
	ok = true
	for t < tEnd {
		from, to, _, t1 := mob.Leg(node, t)
		if t1 <= t {
			// Degenerate leg: only the instantaneous position is known.
			return minP, maxP, false
		}
		// Include the leg's own start: a wrap-around teleport surfaces as a
		// `from` discontinuity, and covering the full leg is conservative.
		minP.X, maxP.X = math.Min(minP.X, from.X), math.Max(maxP.X, from.X)
		minP.Y, maxP.Y = math.Min(minP.Y, from.Y), math.Max(maxP.Y, from.Y)
		var reach mobility.Point
		if t1 >= tEnd {
			reach = mob.Position(node, tEnd)
		} else {
			reach = to
		}
		minP.X, maxP.X = math.Min(minP.X, reach.X), math.Max(maxP.X, reach.X)
		minP.Y, maxP.Y = math.Min(minP.Y, reach.Y), math.Max(maxP.Y, reach.Y)
		if t1 >= tEnd {
			break
		}
		t = t1
	}
	return minP, maxP, ok
}

// appendCandidates appends to buf every indexed node whose epoch area
// intersects the square circumscribing the radius-r disk around p,
// deduplicating nodes that straddle several cells. The result is a superset
// of the nodes within r of p at any instant in the build window; callers
// confirm against exact positions.
func (g *grid) appendCandidates(p mobility.Point, r float64, buf []int32) []int32 {
	g.stats.Queries++
	g.stampGen++
	gen := g.stampGen
	cx0, cy0 := g.cellOf(p.X-r), g.cellOf(p.Y-r)
	cx1, cy1 := g.cellOf(p.X+r), g.cellOf(p.Y+r)
	for cx := cx0; cx <= cx1; cx++ {
		for cy := cy0; cy <= cy1; cy++ {
			idx, ok := g.cells[cellKey(cx, cy)]
			if !ok {
				continue
			}
			for _, id := range g.lists[idx] {
				g.stats.Candidates++
				if g.stamp[id] == gen {
					continue
				}
				g.stamp[id] = gen
				buf = append(buf, id)
			}
		}
	}
	return buf
}
