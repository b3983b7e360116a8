package radio

import (
	"mccls/internal/fault"
	"mccls/internal/mobility"
	"mccls/internal/sim"
)

// Radio-layer fault injection: the medium can be told that a node's radio is
// powered off (crash/restart churn), and it evaluates the radio part of a
// fault.Schedule — the Links and Regions outages that sever links for a time
// window (obstruction, jamming) and the Loss windows that raise the channel
// loss rate (interference burst). The schedule's Crashes are not the
// medium's: fault.Apply turns them into lifecycle events, which reach the
// radio through SetNodeDown. All checks are pure functions of the virtual
// clock and the schedule installed before t=0, so a faulted run is exactly
// as deterministic as a clean one.

// SetNodeDown powers a node's radio off or on. A down node neither
// transmits nor receives and unicasts toward it fail at send time (no MAC
// ACK), which is what lets neighbors detect the crash as a link break.
func (m *Medium) SetNodeDown(node int, down bool) { m.down[node] = down }

// NodeDown reports whether a node's radio is currently off.
func (m *Medium) NodeDown(node int) bool { return m.down[node] }

// SetFaults installs the schedule whose Links, Regions and Loss windows the
// medium evaluates from then on; it ignores the Crashes.
func (m *Medium) SetFaults(s fault.Schedule) { m.faults = s }

// active reports whether now lies in the window [from, to).
func active(now, from, to sim.Time) bool { return now >= from && now < to }

// linkFaulted reports whether a fault window currently severs the a↔b link.
func (m *Medium) linkFaulted(a, b int) bool {
	now := m.sim.Now()
	for _, w := range m.faults.Links {
		if active(now, w.From, w.To) && ((w.A == a && w.B == b) || (w.A == b && w.B == a)) {
			return true
		}
	}
	for _, w := range m.faults.Regions {
		if !active(now, w.From, w.To) {
			continue
		}
		center := mobility.Point{X: w.X, Y: w.Y}
		_, ina := within(center, m.Position(a), w.Radius)
		_, inb := within(center, m.Position(b), w.Radius)
		if ina || inb {
			return true
		}
	}
	return false
}

// lossAt composes every loss window active at t, treating each as an
// independent loss process:
//
//	loss = 1 − Π(1−rateᵢ)
//
// With no active window it returns 0 and deliver draws nothing, so the RNG
// draw sequence of fault-free scenarios is untouched.
func (m *Medium) lossAt(t sim.Time) float64 {
	var loss float64
	for _, w := range m.faults.Loss {
		if active(t, w.From, w.To) {
			loss = 1 - (1-loss)*(1-w.Rate)
		}
	}
	return loss
}
