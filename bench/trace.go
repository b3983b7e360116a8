package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer. Start and End are
// nanoseconds since the tracer was created; Parent is the index of the span
// that caused it (-1 for an operation's root); spans of one operation share
// Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op_id"`
}

// tracer keeps spans in memory. A nil *tracer, or one that is switched
// off, records nothing: that is how the untraced pass runs the same code
// without paying for it.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	t.mu.Unlock()
	return id
}

// scope says where a call's span goes: under which parent, for which op.
// The zero scope records nothing.
type scope struct {
	tr     *tracer
	parent int32
	op     int64
}

// root opens the span of operation i; spans begun in the returned scope are
// its children, and end(scope.parent) closes it.
func (t *tracer) root(i int64) scope {
	return scope{tr: t, parent: t.begin("op", -1, i), op: i}
}

func (s scope) begin(name string) int32 { return s.tr.begin(name, s.parent, s.op) }

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// spanStat summarises the spans of one name.
type spanStat struct {
	name  string
	n     int
	p50us float64
	// selfP50us is the span's duration minus what its child spans cover.
	selfP50us float64
}

// take returns the spans recorded so far and starts a fresh list, so that
// the phases of a pass can be summarised apart.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// spanStats groups finished spans by name, in order of first appearance.
// A span's self time is its duration minus the part of that interval its
// child spans cover (children may overlap: the combiner's fan-out).
func spanStats(spans []span) []spanStat {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && int(s.Parent) < len(spans) && s.End > 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	var order []string
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for i, s := range spans {
		if s.End == 0 {
			continue
		}
		if _, ok := durs[s.Name]; !ok {
			order = append(order, s.Name)
		}
		// Children were appended in start order, so one sweep merges them.
		var covered, reach int64 = 0, s.Start
		for _, c := range children[i] {
			from, to := max(spans[c].Start, reach), min(spans[c].End, s.End)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		d := s.End - s.Start
		durs[s.Name] = append(durs[s.Name], float64(d)/1e3)
		selfs[s.Name] = append(selfs[s.Name], float64(d-covered)/1e3)
	}
	out := make([]spanStat, 0, len(order))
	for _, name := range order {
		out = append(out, spanStat{
			name: name, n: len(durs[name]),
			p50us: median(durs[name]), selfP50us: median(selfs[name]),
		})
	}
	return out
}

// spanP50 returns the named span's median duration in µs, 0 when absent.
func spanP50(stats []spanStat, name string) float64 {
	for _, s := range stats {
		if s.name == name {
			return s.p50us
		}
	}
	return 0
}

// write dumps every span as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
