// Package radio models the wireless medium for the MANET simulator: a
// disk-propagation link model with serialization and propagation delay and
// uniform channel-access (MAC) jitter, and a per-node power switch that
// crash/restart churn drives. It stands in for QualNet's 802.11-style
// PHY/MAC at the fidelity the paper's routing experiments need (see
// DESIGN.md §1).
//
// Neighbor discovery runs through a uniform-grid spatial index (grid.go)
// rebuilt lazily per virtual-time epoch from the mobility model's
// piecewise-linear legs, so a broadcast wave costs O(degree) per sender
// instead of O(n); the tests pin it against an all-pairs scan.
// Transmissions and deliveries are pooled sim.Actions, keeping the whole
// broadcast hot path allocation-free.
//
// A transmission does its geometry once: every range test (grid, InRange)
// is the squared-distance predicate within, a broadcast asks the mobility
// model for the sender's position once and each candidate's once, and the
// fan-out takes its propagation delays from the squared distances the
// audience scan left in Medium.d2.
package radio

import (
	"math"
	"math/bits"
	"slices"
	"time"

	"mccls/internal/mobility"
	"mccls/internal/sim"
)

// Broadcast is the destination id for one-hop broadcast frames.
const Broadcast = -1

// Handler receives a delivered frame payload at a node.
type Handler func(from int, payload any)

const (
	// bitRate is the air data rate in bits/s (2 Mb/s).
	bitRate = 2e6
	// indexEpoch is the spatial index's validity window: the grid indexes
	// where every node can be over the next epoch and is only rebuilt when
	// the clock leaves the window. Longer epochs rebuild less but fatten
	// each node's cell footprint by its reachable area.
	indexEpoch = time.Second
)

// Config parameterizes the medium. Zero values select defaults.
type Config struct {
	// Range is the transmission radius in meters (default 250, the
	// canonical 802.11 outdoor figure used in the AODV literature).
	Range float64

	// Varied only by this package's tests: macDelayMax is the maximum
	// uniform channel-access delay per transmission (default 2ms; it
	// models contention backoff, negative disables it).
	macDelayMax time.Duration
}

func (c Config) withDefaults() Config {
	if c.Range == 0 {
		c.Range = 250
	}
	if c.macDelayMax == 0 {
		c.macDelayMax = 2 * time.Millisecond
	}
	return c
}

// Stats aggregates medium-level counters.
type Stats struct {
	UnicastSent   uint64
	UnicastFailed uint64 // link-layer failures detected at send time
	BroadcastSent uint64
	Deliveries    uint64
	BytesOnAir    uint64
}

// Medium connects nodes over a shared wireless channel.
type Medium struct {
	sim  *sim.Simulator
	mob  mobility.Model
	cfg  Config
	hand []Handler

	// grid is the spatial neighbor index; ranges holds each node's radio
	// range (Config.Range unless overridden).
	grid   *grid
	ranges []float64

	// Scratch buffers and free lists for the allocation-free hot path:
	// nbuf holds the neighbor set of the in-flight broadcast, d2[i] node
	// i's squared distance from the node of the last neighbor scan that
	// accepted it, cbuf the grid's candidate ids, heard one bit per node
	// (all clear between scans) for putting the accepted ones in id order,
	// and the pools recycle transmission and delivery records.
	nbuf    []int
	d2      []float64
	cbuf    []int32
	heard   []uint64
	txPool  []*txJob
	dlvPool []*delivery

	// down marks the powered-off radios.
	down []bool

	// Stats is exported for scenario-level reporting.
	Stats Stats
}

// New builds a medium over the given mobility model.
func New(s *sim.Simulator, mob mobility.Model, cfg Config) *Medium {
	cfg = cfg.withDefaults()
	return &Medium{
		sim:   s,
		mob:   mob,
		cfg:   cfg,
		hand:  make([]Handler, mob.Nodes()),
		down:  make([]bool, mob.Nodes()),
		d2:    make([]float64, mob.Nodes()),
		heard: make([]uint64, (mob.Nodes()+63)/64),

		grid:   newGrid(mob, cfg.Range, indexEpoch),
		ranges: slices.Repeat([]float64{cfg.Range}, mob.Nodes()),
	}
}

// Nodes returns the number of attached nodes.
func (m *Medium) Nodes() int { return m.mob.Nodes() }

// SetHandler installs the receive callback for a node.
func (m *Medium) SetHandler(node int, h Handler) { m.hand[node] = h }

// Handler returns the receive callback currently installed for a node, so
// a layer attached later (e.g. the enrollment protocol) can interpose its
// own handler and delegate everything it does not recognize.
func (m *Medium) Handler(node int) Handler { return m.hand[node] }

// Position returns a node's current location.
func (m *Medium) Position(node int) mobility.Point {
	return m.mob.Position(node, m.sim.Now())
}

// SetNodeRange overrides one node's radio range (heterogeneous radios).
// The link rule stays symmetric: two nodes hear each other iff their
// distance is within the smaller of their ranges, keeping every link
// bidirectional the way AODV's reverse routes and link-layer ACKs assume.
func (m *Medium) SetNodeRange(node int, r float64) { m.ranges[node] = r }

// SetNodeDown powers a node's radio off or on. A down node neither
// transmits nor receives and unicasts toward it fail at send time (no MAC
// ACK), which is what lets neighbors detect the crash as a link break.
func (m *Medium) SetNodeDown(node int, down bool) { m.down[node] = down }

// NodeDown reports whether a node's radio is currently off.
func (m *Medium) NodeDown(node int) bool { return m.down[node] }

// within returns the squared distance between p and q and whether q lies in
// the closed disk of radius r around p (empty for a negative r). It is the
// one range predicate of the medium, and it takes no square root.
func within(p, q mobility.Point, r float64) (d2 float64, ok bool) {
	dx, dy := p.X-q.X, p.Y-q.Y
	d2 = dx*dx + dy*dy
	return d2, r >= 0 && d2 <= r*r
}

// InRange reports whether two nodes can currently hear each other: within
// both radios' range and both powered.
func (m *Medium) InRange(a, b int) bool {
	return !m.down[a] && m.hears(a, m.Position(a), b)
}

// hears reports whether other can currently hear node, a powered radio at
// p, and records their squared distance for the fan-out if so.
func (m *Medium) hears(node int, p mobility.Point, other int) bool {
	if other == node || m.down[other] {
		return false
	}
	d2, ok := within(p, m.Position(other), min(m.ranges[node], m.ranges[other]))
	if !ok {
		return false
	}
	m.d2[other] = d2
	return true
}

// AppendNeighbors appends the nodes currently within range of node to buf
// in ascending id order and returns the extended slice. It scans only the
// spatial index's cells within radio range — O(degree) instead of O(n) —
// and performs no allocation beyond growing buf.
func (m *Medium) AppendNeighbors(node int, buf []int) []int {
	if m.down[node] {
		return buf
	}
	m.grid.ensure(m.sim.Now())
	p := m.Position(node)
	m.cbuf = m.grid.appendCandidates(p, m.ranges[node], m.cbuf[:0])
	// Candidates arrive in cell order. Marking the accepted ones in a bitset
	// and reading it back word by word, clearing as it goes, yields the naive
	// scan's ascending-id order without a sort.
	lo, hi := len(m.heard), -1
	for _, id := range m.cbuf {
		if m.hears(node, p, int(id)) {
			w := int(id >> 6)
			m.heard[w] |= 1 << (id & 63)
			lo, hi = min(lo, w), max(hi, w)
		}
	}
	for w := lo; w <= hi; w++ {
		for b := m.heard[w]; b != 0; b &= b - 1 {
			buf = append(buf, w<<6|bits.TrailingZeros64(b))
		}
		m.heard[w] = 0
	}
	return buf
}

// GridStats reports the spatial index's counters.
func (m *Medium) GridStats() GridStats { return m.grid.stats }

// serialization returns the air time of a frame of the given size.
func (m *Medium) serialization(bytes int) time.Duration {
	return time.Duration(float64(bytes*8) / bitRate * float64(time.Second))
}

// propagation returns the speed-of-light delay over a squared distance in
// square meters: the one square root a delivered frame costs.
func propagation(d2 float64) time.Duration {
	return time.Duration(math.Sqrt(d2) / 3e8 * float64(time.Second))
}

// macDelay draws the uniform channel-access delay.
func (m *Medium) macDelay() time.Duration {
	if m.cfg.macDelayMax <= 0 {
		return 0
	}
	return time.Duration(m.sim.Rand().Int63n(int64(m.cfg.macDelayMax)))
}

// txJob is a pooled transmission event: the frame waiting out its MAC
// delay. to == Broadcast fans out to every neighbor at fire time.
type txJob struct {
	m       *Medium
	from    int
	to      int
	bytes   int
	payload any
}

// Fire transmits the frame. Neighbor membership of a broadcast is evaluated
// at the (jittered) transmission start, matching a real channel where
// movement during backoff changes the audience.
func (j *txJob) Fire() {
	m := j.m
	txStart := m.sim.Now()
	if j.to == Broadcast {
		m.nbuf = m.AppendNeighbors(j.from, m.nbuf[:0])
		for _, to := range m.nbuf {
			m.deliver(j.from, to, j.bytes, j.payload, txStart, m.d2[to])
		}
	} else {
		// Distance only: Unicast checked the range at send time.
		d2, _ := within(m.Position(j.from), m.Position(j.to), 0)
		m.deliver(j.from, j.to, j.bytes, j.payload, txStart, d2)
	}
	m.sim.ScheduleStaged()
	j.payload = nil
	m.txPool = append(m.txPool, j)
}

// newTxJob takes a transmission record from the pool.
func (m *Medium) newTxJob(from, to, bytes int, payload any) *txJob {
	j := sim.Reuse(&m.txPool)
	*j = txJob{m, from, to, bytes, payload}
	return j
}

// delivery is a pooled arrival event: one frame landing at one receiver.
type delivery struct {
	m       *Medium
	from    int
	to      int
	payload any
}

// Fire lands the frame at the receiver's handler.
func (d *delivery) Fire() {
	m := d.m
	if h := m.hand[d.to]; h != nil {
		m.Stats.Deliveries++
		h(d.from, d.payload)
	}
	d.payload = nil
	m.dlvPool = append(m.dlvPool, d)
}

// deliver stages the arrival of a frame at one receiver d2 square meters
// away. It must be called at virtual time txStart, and Fire schedules what
// it staged.
func (m *Medium) deliver(from, to int, bytes int, payload any, txStart sim.Time, d2 float64) {
	d := sim.Reuse(&m.dlvPool)
	*d = delivery{m, from, to, payload}
	m.sim.StageAt(txStart+m.serialization(bytes)+propagation(d2), d)
}

// Broadcast transmits a frame to every node in range at the (jittered)
// transmission start.
func (m *Medium) Broadcast(from int, bytes int, payload any) {
	m.Stats.BroadcastSent++
	m.Stats.BytesOnAir += uint64(bytes)
	m.sim.ScheduleAction(m.macDelay(), m.newTxJob(from, Broadcast, bytes, payload))
}

// Unicast transmits a frame to one neighbor. It returns false — modelling
// the missing link-layer ACK AODV uses for link-break detection — when the
// destination is out of range at send time; the frame is then not
// transmitted.
func (m *Medium) Unicast(from, to int, bytes int, payload any) bool {
	m.Stats.UnicastSent++
	if !m.InRange(from, to) {
		m.Stats.UnicastFailed++
		return false
	}
	m.Stats.BytesOnAir += uint64(bytes)
	m.sim.ScheduleAction(m.macDelay(), m.newTxJob(from, to, bytes, payload))
	return true
}
