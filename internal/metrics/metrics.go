// Package metrics computes the paper's four evaluation metrics from
// per-node routing statistics (routing.Stats, whichever protocol filled
// them):
//
//   - Packet Delivery Ratio: packets received by destinations / packets
//     sent by sources.
//   - RREQ Ratio: RREQs initiated + forwarded + retried, over data packets
//     sent as source + data packets forwarded.
//   - End-to-End Delay: mean source→destination latency of delivered
//     packets.
//   - Packet Drop Ratio: packets discarded by attack nodes / packets sent
//     by all sources.
package metrics

import (
	"fmt"
	"math"
	"time"

	"mccls/internal/routing"
)

// Summary aggregates a scenario run.
type Summary struct {
	DataSent      uint64
	DataDelivered uint64
	DataForwarded uint64

	RREQInitiated uint64
	RREQForwarded uint64
	RREQRetried   uint64

	AttackerDrops uint64
	AuthRejected  uint64
	LinkBreaks    uint64
	NoRouteDrops  uint64

	SignFailures  uint64 // control packets dropped at the signer (RNG failure)
	Crashes       uint64 // fault-injected node crashes
	Restarts      uint64 // fault-injected node restarts
	NodeDownDrops uint64 // frames and sends discarded at crashed nodes

	DelaySum   time.Duration
	DelayCount uint64
}

// Collect sums the statistics of all nodes.
func Collect(nodes []*routing.Agent) Summary {
	var s Summary
	for _, n := range nodes {
		st := n.Stats
		s.DataSent += st.DataSent
		s.DataDelivered += st.DataDelivered
		s.DataForwarded += st.DataForwarded
		s.RREQInitiated += st.RREQInitiated
		s.RREQForwarded += st.RREQForwarded
		s.RREQRetried += st.RREQRetried
		s.AttackerDrops += st.DropByAttacker
		s.AuthRejected += st.AuthRejected
		s.LinkBreaks += st.DropLinkBreak
		s.NoRouteDrops += st.DropNoRoute
		s.SignFailures += st.SignFailures
		s.Crashes += st.Crashes
		s.Restarts += st.Restarts
		s.NodeDownDrops += st.DropNodeDown
		s.DelaySum += st.DelaySum
		s.DelayCount += st.DelayCount
	}
	return s
}

// PacketDeliveryRatio is delivered/sent in [0, 1]; 0 when nothing was sent.
func (s Summary) PacketDeliveryRatio() float64 {
	if s.DataSent == 0 {
		return 0
	}
	return float64(s.DataDelivered) / float64(s.DataSent)
}

// RREQRatio is total RREQ activity over total data transmissions, the
// paper's control-overhead metric.
func (s Summary) RREQRatio() float64 {
	denom := s.DataSent + s.DataForwarded
	if denom == 0 {
		return 0
	}
	return float64(s.RREQInitiated+s.RREQForwarded+s.RREQRetried) / float64(denom)
}

// EndToEndDelay is the mean delivery latency; 0 when nothing was delivered.
func (s Summary) EndToEndDelay() time.Duration {
	if s.DelayCount == 0 {
		return 0
	}
	return s.DelaySum / time.Duration(s.DelayCount)
}

// PacketDropRatio is the fraction of all sourced packets absorbed by
// attackers.
func (s Summary) PacketDropRatio() float64 {
	if s.DataSent == 0 {
		return 0
	}
	return float64(s.AttackerDrops) / float64(s.DataSent)
}

// String renders the four headline metrics.
func (s Summary) String() string {
	return fmt.Sprintf("PDR=%.3f RREQratio=%.3f delay=%v dropRatio=%.3f (sent=%d delivered=%d attackerDrops=%d)",
		s.PacketDeliveryRatio(), s.RREQRatio(), s.EndToEndDelay(), s.PacketDropRatio(),
		s.DataSent, s.DataDelivered, s.AttackerDrops)
}

// Average combines summaries from repeated seeds into their mean. Ratios
// are averaged via the summed counters, weighting runs by traffic volume.
// An empty slice explicitly yields the zero Summary (whose derived ratios
// are all 0, never NaN).
func Average(runs []Summary) Summary {
	var out Summary
	for _, r := range runs {
		out.DataSent += r.DataSent
		out.DataDelivered += r.DataDelivered
		out.DataForwarded += r.DataForwarded
		out.RREQInitiated += r.RREQInitiated
		out.RREQForwarded += r.RREQForwarded
		out.RREQRetried += r.RREQRetried
		out.AttackerDrops += r.AttackerDrops
		out.AuthRejected += r.AuthRejected
		out.LinkBreaks += r.LinkBreaks
		out.NoRouteDrops += r.NoRouteDrops
		out.SignFailures += r.SignFailures
		out.Crashes += r.Crashes
		out.Restarts += r.Restarts
		out.NodeDownDrops += r.NodeDownDrops
		out.DelaySum += r.DelaySum
		out.DelayCount += r.DelayCount
	}
	return out
}

// Stat is a sample statistic over the per-seed repeats of one metric.
type Stat struct {
	Mean float64
	// Stddev is the sample standard deviation (n−1 denominator); 0 when
	// fewer than two repeats exist.
	Stddev float64
	// CI95 is the half-width of the two-sided 95% confidence interval for
	// the mean (Student t); 0 when fewer than two repeats exist. Plot as
	// Mean ± CI95.
	CI95 float64
}

// NewStat computes the statistic of vals. An empty slice explicitly yields
// the zero Stat — no NaN-by-division.
func NewStat(vals []float64) Stat {
	n := len(vals)
	if n == 0 {
		return Stat{}
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	st := Stat{Mean: sum / float64(n)}
	if n < 2 {
		return st
	}
	var ss float64
	for _, v := range vals {
		d := v - st.Mean
		ss += d * d
	}
	st.Stddev = math.Sqrt(ss / float64(n-1))
	st.CI95 = tCritical95(n-1) * st.Stddev / math.Sqrt(float64(n))
	return st
}

// t95 holds the two-sided 95% Student-t critical values for 1–30 degrees of
// freedom; beyond that the normal approximation (1.96) is used. Sweeps
// typically repeat 3 seeds per point (df = 2, t = 4.303), where the normal
// quantile would understate the interval by more than 2×.
var t95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

func tCritical95(df int) float64 {
	if df < 1 {
		return 0
	}
	if df <= len(t95) {
		return t95[df-1]
	}
	return 1.96
}

// Aggregate is the full per-point statistic across a sweep point's repeated
// seeds: the traffic-weighted pooled summary (what Average returns) plus
// mean/stddev/95% CI of each headline metric computed over the per-run
// values, so figures can carry error bars.
type Aggregate struct {
	// Pooled sums the counters of all runs; its derived ratios weight
	// runs by traffic volume and are what the figures plot.
	Pooled Summary
	// N is the number of runs aggregated.
	N int

	PDR       Stat // PacketDeliveryRatio per run
	RREQRatio Stat // RREQRatio per run
	DelayMs   Stat // EndToEndDelay per run, in milliseconds
	DropRatio Stat // PacketDropRatio per run
}

// NewAggregate folds the repeats of one sweep point. An empty slice
// explicitly yields the zero Aggregate (N = 0, all stats zero) rather than
// anything NaN-valued.
func NewAggregate(runs []Summary) Aggregate {
	agg := Aggregate{Pooled: Average(runs), N: len(runs)}
	if len(runs) == 0 {
		return agg
	}
	per := func(f func(Summary) float64) Stat {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = f(r)
		}
		return NewStat(vals)
	}
	agg.PDR = per(Summary.PacketDeliveryRatio)
	agg.RREQRatio = per(Summary.RREQRatio)
	agg.DelayMs = per(func(s Summary) float64 {
		return float64(s.EndToEndDelay()) / float64(time.Millisecond)
	})
	agg.DropRatio = per(Summary.PacketDropRatio)
	return agg
}
