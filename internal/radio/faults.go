package radio

import (
	"mccls/internal/mobility"
	"mccls/internal/sim"
)

// Radio-layer fault injection: the medium can be told that a node's radio is
// powered off (crash/restart churn), that a specific link or a geographic
// region is severed for a time window (obstruction, jamming), or that the
// channel loss rate is elevated for a window (interference burst). All
// checks are pure functions of the virtual clock and the pre-registered
// windows, so a faulted run is exactly as deterministic as a clean one.
// Schedules are built by package fault and installed before t=0.

// linkOutage severs the symmetric link a↔b during [from, to).
type linkOutage struct {
	a, b     int
	from, to sim.Time
}

// regionOutage kills every link with an endpoint inside the disk during
// [from, to).
type regionOutage struct {
	center   mobility.Point
	radius   float64
	from, to sim.Time
}

// lossWindow raises the channel loss rate during [from, to). Windows
// compose with each other and with Config.lossRate as independent loss
// processes.
type lossWindow struct {
	from, to sim.Time
	rate     float64
}

func (w linkOutage) active(now sim.Time) bool   { return now >= w.from && now < w.to }
func (w regionOutage) active(now sim.Time) bool { return now >= w.from && now < w.to }
func (w lossWindow) active(now sim.Time) bool   { return now >= w.from && now < w.to }

// SetNodeDown powers a node's radio off or on. A down node neither
// transmits nor receives and unicasts toward it fail at send time (no MAC
// ACK), which is what lets neighbors detect the crash as a link break.
func (m *Medium) SetNodeDown(node int, down bool) { m.down[node] = down }

// NodeDown reports whether a node's radio is currently off.
func (m *Medium) NodeDown(node int) bool { return m.down[node] }

// AddLinkOutage severs the link between a and b (both directions) during
// [from, to).
func (m *Medium) AddLinkOutage(a, b int, from, to sim.Time) {
	m.linkOutages = append(m.linkOutages, linkOutage{a: a, b: b, from: from, to: to})
}

// AddRegionOutage severs every link touching the disk of the given center
// and radius during [from, to).
func (m *Medium) AddRegionOutage(center mobility.Point, radius float64, from, to sim.Time) {
	m.regOutages = append(m.regOutages, regionOutage{center: center, radius: radius, from: from, to: to})
}

// AddLossWindow raises the channel loss rate by rate (a probability in
// [0, 1)) during [from, to).
func (m *Medium) AddLossWindow(from, to sim.Time, rate float64) {
	m.lossWindows = append(m.lossWindows, lossWindow{from: from, to: to, rate: rate})
}

// linkFaulted reports whether a fault window currently severs the a↔b link.
func (m *Medium) linkFaulted(a, b int) bool {
	now := m.sim.Now()
	for _, w := range m.linkOutages {
		if w.active(now) && ((w.a == a && w.b == b) || (w.a == b && w.b == a)) {
			return true
		}
	}
	for _, w := range m.regOutages {
		if !w.active(now) {
			continue
		}
		_, ina := within(w.center, m.Position(a), w.radius)
		_, inb := within(w.center, m.Position(b), w.radius)
		if ina || inb {
			return true
		}
	}
	return false
}

// lossAt composes the base loss rate with every loss window active at t,
// treating each as an independent loss process:
//
//	loss = 1 − (1−base)·Π(1−rateᵢ)
//
// With no active windows this returns Config.lossRate unchanged, so the RNG
// draw sequence of existing (fault-free) scenarios is untouched.
func (m *Medium) lossAt(t sim.Time) float64 {
	loss := m.cfg.lossRate
	for _, w := range m.lossWindows {
		if w.active(t) {
			loss = 1 - (1-loss)*(1-w.rate)
		}
	}
	return loss
}
