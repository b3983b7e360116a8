package aodv

import (
	"testing"
	"time"

	"mccls/internal/routing"
	"mccls/internal/sim"
)

// seenOracle is RREQ duplicate suppression as a map and nothing else: a
// request is processed iff its (origin, id) is not in the map, the map is
// pruned of entries older than two network-diameter ring traversals once it
// holds 4096, and a cold restart empties it.
type seenOracle struct {
	self int
	seen map[uint64]sim.Time
	down bool
}

func (o *seenOracle) receive(origin int, id uint32, now sim.Time) bool {
	if origin == o.self {
		return false
	}
	key := routing.FloodKey(origin, id)
	if _, dup := o.seen[key]; dup {
		return false
	}
	o.seen[key] = now
	o.prune(now)
	return true
}

func (o *seenOracle) prune(now sim.Time) {
	if len(o.seen) < 4096 {
		return
	}
	horizon := now - 2*ringTraversalTime(netDiameter)
	for k, at := range o.seen {
		if at < horizon {
			delete(o.seen, k)
		}
	}
}

// Script steps of FuzzDuplicateSuppressionVsMap: two bytes each, an op and
// an argument.
const (
	stepReceive = iota // arg: origin in the high nibble, request id in the low
	stepAdvance        // arg: clock advance in 20 ms units
	stepDown
	stepUpRetain
	stepUpCold
	stepFill // 4096 entries older than the prune horizon, then a prune
	numSteps
)

// FuzzDuplicateSuppressionVsMap pins processRREQ's duplicate suppression,
// including its last-key front, to the map-only policy of seenOracle: over
// any script of receives, clock advances, crashes, warm and cold restarts
// and forced prunes, node 1 processes a request exactly when the oracle
// does, and its cache holds as many keys.
func FuzzDuplicateSuppressionVsMap(f *testing.F) {
	recv := func(origin, id byte) []byte { return []byte{stepReceive, origin<<4 | id} }
	script := func(steps ...[]byte) []byte {
		var out []byte
		for _, s := range steps {
			out = append(out, s...)
		}
		return out
	}
	advance := []byte{stepAdvance, 150} // 3 s, past the 2.24 s prune horizon
	fill := []byte{stepFill, 0}
	// The last key pruned, then seen again.
	f.Add(script(recv(2, 5), recv(2, 5), advance, fill, recv(2, 5), recv(2, 5)))
	// A cold restart, then the last key; a warm one keeps it.
	f.Add(script(recv(2, 5), []byte{stepDown, 0}, []byte{stepUpCold, 0}, recv(2, 5), recv(2, 5),
		[]byte{stepDown, 0}, []byte{stepUpRetain, 0}, recv(2, 5)))
	// FloodKey(0, 0) as the first key, and the node's own flood echoed.
	f.Add(script(recv(0, 0), recv(0, 0), recv(1, 0), recv(0, 1), recv(0, 0)))
	// Interleaved floods, a restart while up, a prune that keeps fresh keys.
	f.Add(script(recv(2, 5), recv(3, 5), recv(2, 5), []byte{stepUpCold, 0}, recv(3, 5),
		[]byte{stepAdvance, 50}, recv(4, 1), fill, recv(4, 1), recv(3, 5)))
	f.Fuzz(func(t *testing.T, script []byte) {
		_, _, ns := testNet(t, 2, Config{}, nil)
		n, s := ns[1], ns[1].Sim
		o := &seenOracle{self: n.ID, seen: map[uint64]sim.Time{}}
		processed := false
		n.Hooks.OnRREQ = func(*Node, int, *RREQ) bool { processed = true; return false }
		for step := 0; len(script) >= 2; script, step = script[2:], step+1 {
			arg := script[1]
			switch op := script[0] % numSteps; op {
			case stepReceive:
				origin, id := int(arg>>4), uint32(arg&15)
				processed = false
				n.processRREQ(0, &RREQ{ID: id, Origin: origin, TTL: 1})
				if want := o.receive(origin, id, s.Now()); processed != want {
					t.Fatalf("step %d: RREQ (%d, %d) processed=%v, the map says %v", step, origin, id, processed, want)
				}
			case stepAdvance:
				s.Run(s.Now() + time.Duration(arg)*20*time.Millisecond)
			case stepDown:
				if got, want := n.Down(), !o.down; got != want {
					t.Fatalf("step %d: Down() = %v, want %v", step, got, want)
				}
				o.down = true
			case stepUpRetain, stepUpCold:
				cold := op == stepUpCold
				if got, want := n.Up(!cold), o.down; got != want {
					t.Fatalf("step %d: Up() = %v, want %v", step, got, want)
				}
				if o.down && cold {
					clear(o.seen)
				}
				o.down = false
			case stepFill:
				old := s.Now() - 2*ringTraversalTime(netDiameter) - 1
				for i := range 4096 {
					key := routing.FloodKey(1000+i, uint32(arg))
					n.seen[key], o.seen[key] = old, old
				}
				n.pruneSeen()
				o.prune(s.Now())
			}
			if len(n.seen) != len(o.seen) {
				t.Fatalf("step %d: the cache holds %d keys, the map %d", step, len(n.seen), len(o.seen))
			}
		}
	})
}
