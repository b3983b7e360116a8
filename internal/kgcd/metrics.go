package kgcd

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// counter is a monotonically increasing metric.
type counter struct{ v atomic.Uint64 }

func (c *counter) Inc()          { c.v.Add(1) }
func (c *counter) Value() uint64 { return c.v.Load() }

// latencyBuckets are the histogram upper bounds in seconds. A cache hit is
// sub-millisecond; a cold 2-of-3 issuance is a few milliseconds of G2
// scalar multiplication; anything beyond 1 s is a timeout in the making.
var latencyBuckets = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1,
}

// histogram is a fixed-bucket latency histogram in the Prometheus data
// model: cumulative bucket counts, a running sum and a total count.
type histogram struct {
	counts   [len(latencyBuckets) + 1]atomic.Uint64 // +1 for +Inf
	sumNanos atomic.Uint64
	count    atomic.Uint64
}

func (h *histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for ; i < len(latencyBuckets); i++ {
		if s <= latencyBuckets[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.sumNanos.Add(uint64(d.Nanoseconds()))
	h.count.Add(1)
}

// metrics are the service's observability surface, rendered as Prometheus
// text exposition on /metrics.
type metrics struct {
	enrollTotal    counter // /enroll requests accepted for processing
	enrollErrors   counter // /enroll requests that failed (quorum, timeout)
	badRequests    counter // malformed /enroll payloads
	rateLimited    counter // /enroll requests rejected with 429
	cacheHits      counter
	cacheMisses    counter
	shareRequests  counter // issuance RPCs sent to signer replicas
	shareFailures  counter // issuance RPCs that errored
	paramsTotal    counter // /params requests
	epochConflicts counter // gathers that saw shares from more than one epoch
	enrollLatency  histogram
}

// writePrometheus renders the metrics in Prometheus text exposition format.
func (m *metrics) writePrometheus(w io.Writer) {
	writeCounter := func(name, help string, c *counter) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, c.Value())
	}
	writeCounter("kgcd_enroll_total", "Enrollment requests accepted for processing.", &m.enrollTotal)
	writeCounter("kgcd_enroll_errors_total", "Enrollment requests that failed after acceptance.", &m.enrollErrors)
	writeCounter("kgcd_bad_requests_total", "Malformed enrollment requests rejected.", &m.badRequests)
	writeCounter("kgcd_rate_limited_total", "Enrollment requests rejected by the per-identity rate limit.", &m.rateLimited)
	writeCounter("kgcd_cache_hits_total", "Enrollments served from the partial-key cache.", &m.cacheHits)
	writeCounter("kgcd_cache_misses_total", "Enrollments that required signer fan-out.", &m.cacheMisses)
	writeCounter("kgcd_share_requests_total", "Key-share RPCs sent to signer replicas.", &m.shareRequests)
	writeCounter("kgcd_share_failures_total", "Key-share RPCs that errored or timed out.", &m.shareFailures)
	writeCounter("kgcd_params_total", "Parameter requests served.", &m.paramsTotal)
	writeCounter("kgcd_epoch_conflicts_total", "Share gathers that observed more than one refresh epoch.", &m.epochConflicts)

	const name = "kgcd_enroll_latency_seconds"
	fmt.Fprintf(w, "# HELP %s End-to-end enrollment handler latency.\n# TYPE %s histogram\n", name, name)
	cum := uint64(0)
	for i, le := range latencyBuckets {
		cum += m.enrollLatency.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatLE(le), cum)
	}
	cum += m.enrollLatency.counts[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(m.enrollLatency.sumNanos.Load())/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, m.enrollLatency.count.Load())
}

func formatLE(le float64) string { return fmt.Sprintf("%g", le) }
