// Package mobility provides node-mobility models for the MANET simulator.
// The paper's evaluation uses the random waypoint model in a rectangular
// field with zero pause time and maximum speeds swept from 0 to 20 m/s;
// RandomWaypoint implements exactly that. The city-scale extension adds
// ManhattanGrid (vehicles on a street grid with probabilistic turns), the
// canonical urban VANET mobility pattern. Positions are precomputed as
// piecewise-linear legs, so lookups are pure functions of time, the whole
// trajectory is deterministic given the seed, and consumers (the radio
// medium's spatial index) can bound where a node will be over a time window
// through the Leg view. A leg-based model copies the last leg it answered from
// per node, so it is single-goroutine like the Simulator it serves: build one
// per trial, never share one across goroutines.
package mobility

import (
	"math"
	"math/rand"
	"time"
)

// Point is a position in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Forever is the open-ended leg horizon: a Leg whose t1 is Forever holds its
// destination for the rest of the simulation.
const Forever = time.Duration(math.MaxInt64)

// Model yields node positions over virtual time.
type Model interface {
	// Position returns the location of node at virtual time t.
	Position(node int, t time.Duration) Point
	// Nodes returns the number of nodes the model covers.
	Nodes() int
	// Leg returns the linear trajectory segment active at time t: the node
	// moves from `from` (reached at t0) to `to` (reached at t1) at constant
	// velocity, so Position(node, u) for u in [t0, t1] is the linear
	// interpolation between the endpoints. t0 <= t <= t1 holds for
	// trajectory-aware models; a model without trajectory knowledge returns
	// the degenerate leg (p, p, t, t) with p = Position(node, t), which
	// consumers treat as "instantaneous information only".
	Leg(node int, t time.Duration) (from, to Point, t0, t1 time.Duration)
}

// leg is one linear segment of a trajectory: the node moves from From at
// time Start, reaching To at time End, then the next leg applies. A pause
// is a leg with From == To.
type leg struct {
	start, end time.Duration
	from, to   Point
}

// legModel is the shared engine of every precomputed piecewise-linear
// mobility model: per-node leg lists (contiguous, ordered by time) plus
// Position and Leg lookups. RandomWaypoint and ManhattanGrid both embed it
// and only differ in how they generate the legs.
type legModel struct {
	legs [][]leg
	// hint is a copy of the leg each node's last searched Position landed on
	// (until then the zero leg, which holds no time strictly inside). Time
	// only moves forward inside a run, so the next lookup almost always lands
	// on it again; the value returned never depends on it.
	hint []leg
}

// Nodes returns the number of nodes the model covers.
func (m *legModel) Nodes() int { return len(m.legs) }

// find returns the index of the leg active at time t (the first leg whose
// end is >= t), assuming t is no later than the last leg's end.
func (m *legModel) find(node int, t time.Duration) int {
	ls := m.legs[node]
	lo, hi := 0, len(ls)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if ls[mid].end < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Position returns the location of node at time t by linear interpolation
// over the leg active at t: the hinted one when t lies strictly inside it
// (legs are contiguous, so that is the leg find would return), else by
// binary search.
func (m *legModel) Position(node int, t time.Duration) Point {
	l := &m.hint[node]
	if t <= l.start || t >= l.end {
		ls := m.legs[node]
		if len(ls) == 0 {
			return Point{}
		}
		if t <= ls[0].start {
			return ls[0].from
		}
		if last := &ls[len(ls)-1]; t >= last.end {
			return last.to
		}
		*l = ls[m.find(node, t)]
	}
	// Legs are contiguous, so l.start < t <= l.end: frac is in (0, 1].
	frac := float64(t-l.start) / float64(l.end-l.start)
	return Point{
		X: l.from.X + (l.to.X-l.from.X)*frac,
		Y: l.from.Y + (l.to.Y-l.from.Y)*frac,
	}
}

// Leg returns the trajectory segment covering [t, t1): the first leg whose
// end lies strictly after t, so callers walking a trajectory window always
// make progress and zero-duration legs are stepped over, surfacing as a
// `from` discontinuity on the following leg. Before the first leg and after
// the last, the node holds its position, reported as a degenerate open-ended
// leg.
func (m *legModel) Leg(node int, t time.Duration) (from, to Point, t0, t1 time.Duration) {
	ls := m.legs[node]
	if len(ls) == 0 {
		return Point{}, Point{}, 0, Forever
	}
	if t < ls[0].start {
		return ls[0].from, ls[0].from, 0, ls[0].start
	}
	last := ls[len(ls)-1]
	if t >= last.end {
		return last.to, last.to, last.end, Forever
	}
	// First leg with end > t (strict), which on integer time is end >= t+1;
	// t >= last.end was excluded above.
	l := ls[m.find(node, t+1)]
	return l.from, l.to, l.start, l.end
}

// RandomWaypoint is the classic random waypoint model: each node repeatedly
// picks a uniform destination in the field and a uniform speed up to
// MaxSpeed, travels there in a straight line, and repeats with no pause (the
// paper's §6 setup).
type RandomWaypoint struct {
	legModel
}

// RandomWaypointConfig parameterizes the model.
type RandomWaypointConfig struct {
	// Width and Height are the field dimensions in meters.
	Width, Height float64
	// MaxSpeed bounds the per-leg speed in m/s; 0 makes all nodes static at
	// their initial positions.
	MaxSpeed float64
}

// NewRandomWaypoint precomputes trajectories for n nodes up to the horizon.
// Positions requested beyond the horizon hold the last waypoint.
func NewRandomWaypoint(cfg RandomWaypointConfig, n int, horizon time.Duration, rng *rand.Rand) *RandomWaypoint {
	m := &RandomWaypoint{legModel{legs: make([][]leg, n), hint: make([]leg, n)}}
	for node := 0; node < n; node++ {
		pos := Point{X: rng.Float64() * cfg.Width, Y: rng.Float64() * cfg.Height}
		var ls []leg
		now := time.Duration(0)
		if cfg.MaxSpeed <= 0 {
			ls = append(ls, leg{start: 0, end: horizon, from: pos, to: pos})
		}
		for now < horizon && cfg.MaxSpeed > 0 {
			dst := Point{X: rng.Float64() * cfg.Width, Y: rng.Float64() * cfg.Height}
			speed := drawSpeed(rng, cfg.MaxSpeed)
			travel := time.Duration(pos.Dist(dst) / speed * float64(time.Second))
			ls = append(ls, leg{start: now, end: now + travel, from: pos, to: dst})
			now += travel
			pos = dst
		}
		m.legs[node] = ls
	}
	return m
}

// drawSpeed draws a leg's speed uniformly from [min(0.1, maxSpeed),
// maxSpeed]; the floor avoids the classic random-waypoint speed-decay
// pathology of near-zero speeds.
func drawSpeed(rng *rand.Rand, maxSpeed float64) float64 {
	floor := math.Min(0.1, maxSpeed)
	return floor + rng.Float64()*(maxSpeed-floor)
}

// ManhattanGridConfig parameterizes the Manhattan mobility model: vehicles
// constrained to a grid of orthogonal streets, turning probabilistically at
// intersections — the standard urban VANET pattern.
type ManhattanGridConfig struct {
	// Width and Height are the field dimensions in meters.
	Width, Height float64
	// MaxSpeed bounds the per-block speed in m/s; 0 parks every vehicle at
	// its starting intersection.
	MaxSpeed float64
}

// blockSpacing is the Manhattan block size: streets run every blockSpacing
// meters in both axes.
const blockSpacing = 100

// ManhattanGrid moves nodes along a grid of orthogonal streets: one block
// per leg, a probabilistic direction choice at every intersection, a fresh
// uniform speed per block.
type ManhattanGrid struct {
	legModel
}

// manhattan direction vectors: east, north, west, south (grid steps).
var manhattanDirs = [4][2]int{{1, 0}, {0, 1}, {-1, 0}, {0, -1}}

// NewManhattanGrid precomputes trajectories for n nodes up to the horizon.
// Vehicles start at uniformly drawn intersections.
func NewManhattanGrid(cfg ManhattanGridConfig, n int, horizon time.Duration, rng *rand.Rand) *ManhattanGrid {
	// Intersections live at (i, j)·blockSpacing for i in [0, nx],
	// j in [0, ny]; a degenerate axis (field thinner than one block)
	// still leaves a single street along the other axis.
	nx := int(cfg.Width / blockSpacing)
	ny := int(cfg.Height / blockSpacing)
	m := &ManhattanGrid{legModel{legs: make([][]leg, n), hint: make([]leg, n)}}
	for node := 0; node < n; node++ {
		ix, iy := rng.Intn(nx+1), rng.Intn(ny+1)
		pos := Point{X: float64(ix) * blockSpacing, Y: float64(iy) * blockSpacing}
		var ls []leg
		if cfg.MaxSpeed <= 0 || (nx == 0 && ny == 0) {
			m.legs[node] = append(ls, leg{start: 0, end: horizon, from: pos, to: pos})
			continue
		}
		dir := rng.Intn(4)
		now := time.Duration(0)
		for now < horizon {
			dir = nextManhattanDir(rng, dir, ix, iy, nx, ny)
			ix += manhattanDirs[dir][0]
			iy += manhattanDirs[dir][1]
			dst := Point{X: float64(ix) * blockSpacing, Y: float64(iy) * blockSpacing}
			speed := drawSpeed(rng, cfg.MaxSpeed)
			travel := time.Duration(pos.Dist(dst) / speed * float64(time.Second))
			ls = append(ls, leg{start: now, end: now + travel, from: pos, to: dst})
			now += travel
			pos = dst
		}
		m.legs[node] = ls
	}
	return m
}

// nextManhattanDir draws the direction taken out of intersection (ix, iy) by
// a vehicle that arrived heading dir: straight with probability straightProb
// when the grid allows it, otherwise a uniform choice among the available
// turns, U-turning only at dead ends.
func nextManhattanDir(rng *rand.Rand, dir, ix, iy, nx, ny int) int {
	const straightProb = 0.5
	ok := func(d int) bool {
		jx, jy := ix+manhattanDirs[d][0], iy+manhattanDirs[d][1]
		return jx >= 0 && jx <= nx && jy >= 0 && jy <= ny
	}
	reverse := (dir + 2) % 4
	if ok(dir) && rng.Float64() < straightProb {
		return dir
	}
	// Collect the turns (and straight, when it lost the draw above but a
	// turn is impossible) in fixed order for determinism.
	var turns []int
	for _, d := range [2]int{(dir + 1) % 4, (dir + 3) % 4} {
		if ok(d) {
			turns = append(turns, d)
		}
	}
	if len(turns) == 0 {
		if ok(dir) {
			return dir
		}
		return reverse // dead end
	}
	return turns[rng.Intn(len(turns))]
}

// Static places nodes at fixed positions; useful for unit tests and
// hand-built topologies.
type Static struct {
	Points []Point
}

// Nodes returns the number of nodes the model covers.
func (s *Static) Nodes() int { return len(s.Points) }

// Position returns the fixed location of node.
func (s *Static) Position(node int, _ time.Duration) Point { return s.Points[node] }

// Leg reports the open-ended zero-velocity leg of a fixed node.
func (s *Static) Leg(node int, _ time.Duration) (from, to Point, t0, t1 time.Duration) {
	p := s.Points[node]
	return p, p, 0, Forever
}
