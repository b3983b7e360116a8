// Package traffic generates the constant-bit-rate (CBR) workload used by
// the paper's QualNet experiments: a fixed set of source→destination flows,
// each emitting fixed-size packets at a fixed rate between a start and stop
// time.
package traffic

import (
	"math/rand"
	"time"

	"mccls/internal/sim"
)

// Sender is the application-layer send interface a routing agent exposes;
// both aodv.Node and dsr.Node satisfy it.
type Sender interface {
	Send(dst, bytes int)
}

// Flow is one CBR conversation.
type Flow struct {
	Src, Dst int
}

// The paper's workload, matching the AODV literature: every flow emits
// cbrRate packets per second of cbrPacketBytes application payload each.
const (
	cbrRate        = 4
	cbrPacketBytes = 512
)

// CBRConfig parameterizes the generator.
type CBRConfig struct {
	// Start and Stop bound the emission window.
	Start, Stop time.Duration

	// rate and packetBytes replace cbrRate and cbrPacketBytes when
	// non-zero; only this package's tests set them.
	rate        float64
	packetBytes int
}

func (c CBRConfig) withDefaults() CBRConfig {
	if c.rate == 0 {
		c.rate = cbrRate
	}
	if c.packetBytes == 0 {
		c.packetBytes = cbrPacketBytes
	}
	return c
}

// RandomFlows draws n distinct src→dst pairs from eligible (src ≠ dst). It
// panics if fewer than two eligible nodes exist, which is a configuration
// error.
func RandomFlows(n int, eligible []int, rng *rand.Rand) []Flow {
	if len(eligible) < 2 {
		panic("traffic: need at least two eligible nodes")
	}
	flows := make([]Flow, 0, n)
	used := make(map[Flow]bool, n)
	for len(flows) < n {
		src := eligible[rng.Intn(len(eligible))]
		dst := eligible[rng.Intn(len(eligible))]
		if src == dst {
			continue
		}
		f := Flow{Src: src, Dst: dst}
		if used[f] {
			continue
		}
		used[f] = true
		flows = append(flows, f)
	}
	return flows
}

// StartCBR schedules every flow's packet emissions on the simulator. Each
// flow's first packet is offset by a uniform random fraction of the period
// so flows do not synchronize.
func StartCBR(s *sim.Simulator, nodes []Sender, flows []Flow, cfg CBRConfig) {
	cfg = cfg.withDefaults()
	period := time.Duration(float64(time.Second) / cfg.rate)
	for _, f := range flows {
		f := f
		offset := time.Duration(s.Rand().Int63n(int64(period)))
		var tick func()
		tick = func() {
			if s.Now() >= cfg.Stop {
				return
			}
			nodes[f.Src].Send(f.Dst, cfg.packetBytes)
			s.Schedule(period, tick)
		}
		s.ScheduleAt(cfg.Start+offset, tick)
	}
}
