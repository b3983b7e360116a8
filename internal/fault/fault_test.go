package fault

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mccls/internal/sim"
)

func TestChurnDeterministicAndBounded(t *testing.T) {
	const events, nodes, duration = 50, 20, 900 * time.Second
	a := Churn(rand.New(rand.NewSource(42)), events, nodes, duration)
	b := Churn(rand.New(rand.NewSource(42)), events, nodes, duration)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different crashes")
	}
	c := Churn(rand.New(rand.NewSource(43)), events, nodes, duration)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical crashes")
	}
	if len(a) != events {
		t.Fatalf("got %d crashes, want %d", len(a), events)
	}
	retained := map[bool]int{}
	for _, cr := range a {
		if cr.Node < 0 || cr.Node >= nodes {
			t.Fatalf("victim %d out of range", cr.Node)
		}
		if cr.At < 0 || cr.At >= duration {
			t.Fatalf("crash at %v outside run", cr.At)
		}
		if down := cr.RestartAt - cr.At; down < 15*time.Second || down >= 45*time.Second {
			t.Fatalf("downtime %v outside [15s, 45s)", down)
		}
		retained[cr.RetainRoutes]++
	}
	if retained[true] == 0 || retained[false] == 0 {
		t.Fatalf("RetainRoutes true/false = %d/%d: both boot paths must occur", retained[true], retained[false])
	}
}

func TestChurnEmptyCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		events, nodes int
		duration      time.Duration
	}{
		{0, 5, time.Minute},
		{3, 0, time.Minute},
		{3, 5, 0},
	} {
		if crashes := Churn(rng, c.events, c.nodes, c.duration); crashes != nil {
			t.Fatalf("%+v produced crashes %v", c, crashes)
		}
	}
}

// recNode records lifecycle transitions, enforcing the Down/Up contract
// that repeated transitions in the same direction return false.
type recNode struct {
	down              bool
	crashes, restarts int
}

func (n *recNode) Down() bool {
	if n.down {
		return false
	}
	n.down = true
	n.crashes++
	return true
}

func (n *recNode) Up(bool) bool {
	if !n.down {
		return false
	}
	n.down = false
	n.restarts++
	return true
}

func TestApplyLifecycleAndHooks(t *testing.T) {
	s := sim.New(1)
	nodes := []*recNode{{}, {}, {}}
	fnodes := make([]Node, len(nodes))
	for i, n := range nodes {
		fnodes[i] = n
	}
	var crashed, restarted []int
	crashes := []Crash{
		{Node: 1, At: 1 * time.Second, RestartAt: 5 * time.Second},
		// Overlapping window for the same node: the Down is a no-op, so the
		// crash hook must not fire twice; its restart lands while the node
		// is already up and must also be a no-op.
		{Node: 1, At: 2 * time.Second, RestartAt: 3 * time.Second},
		// Permanent crash (no restart).
		{Node: 2, At: 4 * time.Second},
		// Out-of-range victim: ignored.
		{Node: 99, At: 1 * time.Second},
	}
	Apply(s, crashes, fnodes, Hooks{
		OnCrash:   func(n int) { crashed = append(crashed, n) },
		OnRestart: func(n int) { restarted = append(restarted, n) },
	})
	s.Run(10 * time.Second)

	if nodes[1].crashes != 1 || nodes[1].restarts != 1 {
		t.Fatalf("node 1 transitions: crashes=%d restarts=%d, want 1/1", nodes[1].crashes, nodes[1].restarts)
	}
	if nodes[1].down {
		t.Fatal("node 1 should have restarted")
	}
	if !nodes[2].down || nodes[2].crashes != 1 {
		t.Fatal("node 2 should be permanently down")
	}
	if nodes[0].crashes != 0 {
		t.Fatal("node 0 should be untouched")
	}
	if !reflect.DeepEqual(crashed, []int{1, 2}) {
		t.Fatalf("crash hooks fired for %v, want [1 2]", crashed)
	}
	if !reflect.DeepEqual(restarted, []int{1}) {
		t.Fatalf("restart hooks fired for %v, want [1]", restarted)
	}
}

func TestRotation(t *testing.T) {
	const nodes = 3
	crashes := Rotation(nodes, 5*time.Second, 2*time.Second, 15*time.Second)
	if len(crashes) != 3 {
		t.Fatalf("got %d crashes, want 3", len(crashes))
	}
	for k, c := range crashes {
		if c.Node != k%nodes {
			t.Errorf("crash %d takes node %d, want %d", k, c.Node, k%nodes)
		}
		if c.At != time.Duration(k)*5*time.Second || c.RestartAt != c.At+2*time.Second || c.RetainRoutes {
			t.Errorf("crash %d window [%v, %v) retain %v", k, c.At, c.RestartAt, c.RetainRoutes)
		}
	}
	// At any instant at most one node is dark, and each one is in its turn.
	everDark := map[int]bool{}
	for e := time.Duration(0); e < 15*time.Second; e += 250 * time.Millisecond {
		dark := 0
		for _, c := range crashes {
			if e >= c.At && e < c.RestartAt {
				dark++
				everDark[c.Node] = true
			}
		}
		if dark > 1 {
			t.Fatalf("%d nodes dark at %v", dark, e)
		}
	}
	if len(everDark) != nodes {
		t.Fatalf("nodes crashed over the horizon: %v, want all %d", everDark, nodes)
	}
	if Rotation(0, time.Second, time.Second, time.Minute) != nil {
		t.Error("no nodes: want nil")
	}
}
