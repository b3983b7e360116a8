package routing_test

import (
	"testing"
	"time"

	"mccls/internal/aodv"
	"mccls/internal/dsr"
	"mccls/internal/mobility"
	"mccls/internal/radio"
	"mccls/internal/routing"
	"mccls/internal/secrouting"
	"mccls/internal/sim"
)

// TestDataPacketsAreConserved: every data packet a node originates ends up
// delivered or in exactly one Drop* counter once the run has drained. The
// sweep slides a 50 ms power-off of node 1's radio across the moment node
// 0's route discovery completes on a 3-node line (2 ms verify delay, three
// packets buffered): in a few placements the reply arrives while node 1 is
// up but the buffer is flushed after it went dark. Before internal/routing, DSR's
// flush re-buffered those packets and then deleted the queue it had just
// re-buffered them into — sent 3, delivered 0, dropped 0, waiting 0.
func TestDataPacketsAreConserved(t *testing.T) {
	type sender interface{ Send(dst, bytes int) }
	for name, build := range map[string]func(int, *sim.Simulator, *radio.Medium, routing.Authenticator) (sender, *routing.Agent){
		"aodv": func(id int, s *sim.Simulator, m *radio.Medium, auth routing.Authenticator) (sender, *routing.Agent) {
			n := aodv.NewNode(id, s, m, aodv.Config{}, auth)
			return n, &n.Agent
		},
		"dsr": func(id int, s *sim.Simulator, m *radio.Medium, auth routing.Authenticator) (sender, *routing.Agent) {
			n := dsr.NewNode(id, s, m, auth)
			return n, &n.Agent
		},
	} {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 400; i++ {
				from := time.Duration(i) * 100 * time.Microsecond
				s := sim.New(1)
				line := &mobility.Static{Points: []mobility.Point{{X: 0}, {X: 200}, {X: 400}}}
				m := radio.New(s, line, radio.Config{})
				s.ScheduleAt(from, func() { m.SetNodeDown(1, true) })
				s.ScheduleAt(from+50*time.Millisecond, func() { m.SetNodeDown(1, false) })
				auth := secrouting.NewCostModelAuth()
				var src sender
				var agents []*routing.Agent
				for id := 0; id < 3; id++ {
					auth.Enroll(id)
					n, a := build(id, s, m, auth)
					if id == 0 {
						src = n
					}
					agents = append(agents, a)
				}
				for pkt := 0; pkt < 3; pkt++ {
					src.Send(2, 64)
				}
				s.RunAll()

				var st routing.Stats
				for _, a := range agents {
					st.Add(a.Stats)
				}
				sent, delivered := st.DataSent, st.DataDelivered
				dropped := st.DropNoRoute + st.DropBufferOverflow + st.DropLinkBreak +
					st.DropTTLExpired + st.DropByAttacker + st.DropNodeDown
				if sent != 3 || sent != delivered+dropped {
					t.Fatalf("power-off at %v: sent %d, delivered %d + dropped %d", from, sent, delivered, dropped)
				}
			}
		})
	}
}
