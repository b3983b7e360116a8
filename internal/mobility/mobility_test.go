package mobility

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestStatic(t *testing.T) {
	s := &Static{Points: []Point{{1, 2}, {3, 4}}}
	if s.Nodes() != 2 {
		t.Fatal("wrong node count")
	}
	if p := s.Position(1, time.Hour); p != (Point{3, 4}) {
		t.Fatalf("static node moved: %v", p)
	}
}

func TestRandomWaypointBounds(t *testing.T) {
	cfg := RandomWaypointConfig{Width: 1500, Height: 300, MaxSpeed: 20}
	m := NewRandomWaypoint(cfg, 20, 900*time.Second, rand.New(rand.NewSource(7)))
	if m.Nodes() != 20 {
		t.Fatal("wrong node count")
	}
	for node := 0; node < m.Nodes(); node++ {
		for ts := time.Duration(0); ts <= 900*time.Second; ts += 9 * time.Second {
			p := m.Position(node, ts)
			if p.X < 0 || p.X > 1500 || p.Y < 0 || p.Y > 300 {
				t.Fatalf("node %d left the field at %v: %v", node, ts, p)
			}
		}
	}
}

func TestRandomWaypointSpeedRespected(t *testing.T) {
	const maxSpeed = 10.0
	cfg := RandomWaypointConfig{Width: 1000, Height: 1000, MaxSpeed: maxSpeed}
	m := NewRandomWaypoint(cfg, 5, 300*time.Second, rand.New(rand.NewSource(3)))
	const step = 100 * time.Millisecond
	for node := 0; node < 5; node++ {
		prev := m.Position(node, 0)
		for ts := step; ts <= 300*time.Second; ts += step {
			cur := m.Position(node, ts)
			dist := cur.Dist(prev)
			speed := dist / step.Seconds()
			// Allow a whisker of slack for waypoint-corner interpolation.
			if speed > maxSpeed*1.05 {
				t.Fatalf("node %d moved at %.2f m/s (> %v)", node, speed, maxSpeed)
			}
			prev = cur
		}
	}
}

func TestRandomWaypointZeroSpeedStatic(t *testing.T) {
	cfg := RandomWaypointConfig{Width: 500, Height: 500, MaxSpeed: 0}
	m := NewRandomWaypoint(cfg, 3, time.Minute, rand.New(rand.NewSource(1)))
	for node := 0; node < 3; node++ {
		p0 := m.Position(node, 0)
		p1 := m.Position(node, 30*time.Second)
		if p0 != p1 {
			t.Fatalf("node %d moved despite MaxSpeed=0", node)
		}
	}
}

func TestRandomWaypointMoves(t *testing.T) {
	cfg := RandomWaypointConfig{Width: 1000, Height: 1000, MaxSpeed: 20}
	m := NewRandomWaypoint(cfg, 3, 5*time.Minute, rand.New(rand.NewSource(9)))
	for node := 0; node < 3; node++ {
		if m.Position(node, 0) == m.Position(node, time.Minute) {
			t.Fatalf("node %d never moved", node)
		}
	}
}

func TestRandomWaypointDeterministic(t *testing.T) {
	cfg := RandomWaypointConfig{Width: 1000, Height: 300, MaxSpeed: 15}
	a := NewRandomWaypoint(cfg, 4, time.Minute, rand.New(rand.NewSource(5)))
	b := NewRandomWaypoint(cfg, 4, time.Minute, rand.New(rand.NewSource(5)))
	for node := 0; node < 4; node++ {
		for ts := time.Duration(0); ts < time.Minute; ts += 777 * time.Millisecond {
			if a.Position(node, ts) != b.Position(node, ts) {
				t.Fatal("same seed produced different trajectories")
			}
		}
	}
}

// TestLegMatchesPosition pins the Leg/Position contract on every leg-based
// model: at any t the position is the linear interpolation of the active
// leg, and walking legs from 0 always makes progress.
func TestLegMatchesPosition(t *testing.T) {
	horizon := 120 * time.Second
	models := map[string]Model{
		"rwp": NewRandomWaypoint(RandomWaypointConfig{Width: 1000, Height: 500, MaxSpeed: 20},
			6, horizon, rand.New(rand.NewSource(11))),
		"manhattan": NewManhattanGrid(ManhattanGridConfig{Width: 1000, Height: 500, MaxSpeed: 15},
			6, horizon, rand.New(rand.NewSource(11))),
		"static": &Static{Points: []Point{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}, {11, 12}}},
	}
	for name, m := range models {
		for node := 0; node < m.Nodes(); node++ {
			for ts := time.Duration(0); ts <= horizon+10*time.Second; ts += 1337 * time.Millisecond {
				from, to, t0, t1 := m.Leg(node, ts)
				if t1 < ts || t0 > ts {
					t.Fatalf("%s node %d: leg [%v,%v] does not cover t=%v", name, node, t0, t1, ts)
				}
				var want Point
				if t1 <= t0 || t1 == Forever && ts >= t0 {
					want = to
					if ts == t0 {
						want = from
					}
				}
				if t1 > t0 && t1 != Forever {
					frac := float64(ts-t0) / float64(t1-t0)
					want = Point{X: from.X + (to.X-from.X)*frac, Y: from.Y + (to.Y-from.Y)*frac}
				}
				got := m.Position(node, ts)
				if got.Dist(want) > 1e-6 {
					t.Fatalf("%s node %d t=%v: Position=%v but leg lerp=%v", name, node, ts, got, want)
				}
			}
			// Walking the legs from 0 terminates (every step advances).
			ts := time.Duration(0)
			for steps := 0; ts < horizon; steps++ {
				if steps > 100000 {
					t.Fatalf("%s node %d: leg walk did not terminate", name, node)
				}
				_, _, _, t1 := m.Leg(node, ts)
				if t1 <= ts {
					t.Fatalf("%s node %d: leg walk stalled at t=%v (t1=%v)", name, node, ts, t1)
				}
				ts = t1
			}
		}
	}
}

func TestManhattanGridStaysOnStreets(t *testing.T) {
	cfg := ManhattanGridConfig{Width: 1000, Height: 600, MaxSpeed: 15}
	m := NewManhattanGrid(cfg, 20, 300*time.Second, rand.New(rand.NewSource(4)))
	onStreet := func(v float64) bool {
		_, frac := math.Modf(v / blockSpacing)
		return frac < 1e-9 || frac > 1-1e-9
	}
	for node := 0; node < m.Nodes(); node++ {
		for ts := time.Duration(0); ts <= 300*time.Second; ts += 731 * time.Millisecond {
			p := m.Position(node, ts)
			if p.X < 0 || p.X > 1000 || p.Y < 0 || p.Y > 600 {
				t.Fatalf("node %d left the field at %v: %v", node, ts, p)
			}
			if !onStreet(p.X) && !onStreet(p.Y) {
				t.Fatalf("node %d off-street at %v: %v", node, ts, p)
			}
		}
	}
}

func TestManhattanGridMovesAndIsDeterministic(t *testing.T) {
	cfg := ManhattanGridConfig{Width: 800, Height: 800, MaxSpeed: 10}
	a := NewManhattanGrid(cfg, 5, 2*time.Minute, rand.New(rand.NewSource(6)))
	b := NewManhattanGrid(cfg, 5, 2*time.Minute, rand.New(rand.NewSource(6)))
	for node := 0; node < 5; node++ {
		if a.Position(node, 0) == a.Position(node, time.Minute) {
			t.Fatalf("node %d never moved", node)
		}
		for ts := time.Duration(0); ts < 2*time.Minute; ts += 777 * time.Millisecond {
			if a.Position(node, ts) != b.Position(node, ts) {
				t.Fatal("same seed produced different trajectories")
			}
		}
	}
}

func TestStaticLegOpenEnded(t *testing.T) {
	s := &Static{Points: []Point{{1, 2}}}
	from, to, t0, t1 := s.Leg(0, time.Hour)
	if from != (Point{1, 2}) || to != from || t0 != 0 || t1 != Forever {
		t.Fatalf("static leg = (%v,%v,%v,%v)", from, to, t0, t1)
	}
}

func TestRandomWaypointBeyondHorizonHolds(t *testing.T) {
	cfg := RandomWaypointConfig{Width: 100, Height: 100, MaxSpeed: 5}
	m := NewRandomWaypoint(cfg, 1, 10*time.Second, rand.New(rand.NewSource(2)))
	// The final leg may extend past the horizon; once it completes the node
	// holds its last waypoint forever.
	p1 := m.Position(0, 10*time.Hour)
	p2 := m.Position(0, 20*time.Hour)
	if p1 != p2 {
		t.Fatal("position changed beyond horizon")
	}
}

// searchPosition and searchLeg are the lookups as they were before the leg
// hint and before Leg shared find: a plain binary search per call, clamps
// included. They are the oracle FuzzPositionHintVsSearch replays against.
func searchPosition(ls []leg, t time.Duration) Point {
	if len(ls) == 0 {
		return Point{}
	}
	if t <= ls[0].start {
		return ls[0].from
	}
	if last := ls[len(ls)-1]; t >= last.end {
		return last.to
	}
	l := ls[sort.Search(len(ls), func(i int) bool { return ls[i].end >= t })]
	if l.end == l.start {
		return l.to
	}
	frac := math.Max(0, math.Min(1, float64(t-l.start)/float64(l.end-l.start)))
	return Point{X: l.from.X + (l.to.X-l.from.X)*frac, Y: l.from.Y + (l.to.Y-l.from.Y)*frac}
}

func searchLeg(ls []leg, t time.Duration) (from, to Point, t0, t1 time.Duration) {
	if len(ls) == 0 {
		return Point{}, Point{}, 0, Forever
	}
	if t < ls[0].start {
		return ls[0].from, ls[0].from, 0, ls[0].start
	}
	if last := ls[len(ls)-1]; t >= last.end {
		return last.to, last.to, last.end, Forever
	}
	l := ls[sort.Search(len(ls), func(i int) bool { return ls[i].end > t })]
	return l.from, l.to, l.start, l.end
}

// stutterModel hand-builds contiguous trajectories dense in the cases the
// generators rarely draw: zero-length legs (singly and in runs, also first
// and last), pauses, and legs one nanosecond long.
func stutterModel(n int, rng *rand.Rand) *legModel {
	m := &legModel{legs: make([][]leg, n), hint: make([]leg, n)}
	durations := []time.Duration{0, 0, 1, time.Millisecond, time.Second, 3 * time.Second}
	for node := range m.legs {
		now := time.Duration(rng.Intn(2)) * time.Second // some trajectories start late
		pos := Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		for k := rng.Intn(12); k >= 0; k-- {
			dst := pos // pause or zero-length hold
			if rng.Intn(3) > 0 {
				dst = Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
			}
			d := durations[rng.Intn(len(durations))]
			m.legs[node] = append(m.legs[node], leg{start: now, end: now + d, from: pos, to: dst})
			now, pos = now+d, dst
		}
	}
	return m
}

// FuzzPositionHintVsSearch pins the leg hint as invisible: over both
// generated models and the hand-built stutter model, any sequence of
// Position and Leg calls — times non-monotone, before the first leg, past
// the horizon, exactly on leg boundaries — returns bit for bit what a fresh
// binary search returns. Each 5-byte op of script is (node and kind, time).
func FuzzPositionHintVsSearch(f *testing.F) {
	// Seed corpus: every boundary of each node's first legs, approached with
	// the hint parked on that leg, on its neighbour and far away, over each
	// model kind; plus times before the first leg and past the horizon.
	var walk []byte
	for k := uint32(0); k < 14; k++ {
		for node := byte(0); node < 4; node++ {
			for _, op := range []byte{0x20, 0x40, 0x20, 0x60, 0xc0, 0xe0, 0x20, 0x00, 0x40, 0x60, 0x80} {
				arg := k
				if op&0x60 == 0 {
					arg = k * 330_000_000 // a plain time: k·3.3 s − 1 s
				}
				walk = binary.BigEndian.AppendUint32(append(walk, op|node), arg)
			}
		}
	}
	for kind := uint8(0); kind < 6; kind++ {
		f.Add(int64(kind)+1, kind, walk)
	}
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, script []byte) {
		const n, horizon = 4, 30 * time.Second
		rng := rand.New(rand.NewSource(seed))
		var m *legModel
		switch kind % 3 {
		case 0:
			m = &NewRandomWaypoint(RandomWaypointConfig{Width: 500, Height: 300, MaxSpeed: 20}, n, horizon, rng).legModel
		case 1:
			m = &NewManhattanGrid(ManhattanGridConfig{Width: 400, Height: 400, MaxSpeed: float64(kind / 3 % 2 * 15)}, n, horizon, rng).legModel
		default:
			m = stutterModel(n, rng)
		}
		// The invariant the hint (and the absent clamps) rest on.
		for node, ls := range m.legs {
			for i, l := range ls {
				if l.end < l.start || i > 0 && l.start != ls[i-1].end {
					t.Fatalf("node %d leg %d [%v,%v] is not contiguous with its predecessor", node, i, l.start, l.end)
				}
			}
		}
		for ; len(script) >= 5; script = script[5:] {
			node := int(script[0] % n)
			ls := m.legs[node]
			arg := binary.BigEndian.Uint32(script[1:5])
			// Times span [-1 s, 42 s) in 10 ns steps; with bit 5 or 6 set,
			// arg instead picks a leg and the time is its midpoint (0x20),
			// its end (0x40) or its start (0x60).
			at := time.Duration(arg)*10 - time.Second
			if len(ls) > 0 {
				switch l := ls[int(arg)%len(ls)]; script[0] & 0x60 {
				case 0x20:
					at = l.start + (l.end-l.start)/2
				case 0x40:
					at = l.end
				case 0x60:
					at = l.start
				}
			}
			if script[0]&0x80 != 0 {
				from, to, t0, t1 := m.Leg(node, at)
				wf, wt, w0, w1 := searchLeg(ls, at)
				if from != wf || to != wt || t0 != w0 || t1 != w1 {
					t.Fatalf("Leg(%d, %v) = (%v,%v,%v,%v), search says (%v,%v,%v,%v)", node, at, from, to, t0, t1, wf, wt, w0, w1)
				}
			} else if got, want := m.Position(node, at), searchPosition(ls, at); got != want {
				t.Fatalf("Position(%d, %v) = %v with hint, %v by search", node, at, got, want)
			}
			// The hint is the zero leg or a copy of one of the node's legs.
			if h := m.hint[node]; h != (leg{}) && !slices.Contains(ls, h) {
				t.Fatalf("node %d hint %+v is none of its legs", node, h)
			}
		}
	})
}
