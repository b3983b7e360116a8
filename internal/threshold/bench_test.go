package threshold

import (
	"fmt"
	"testing"
)

// BenchmarkCombine prices one 2-of-3 Lagrange combine per replica pair a
// combiner's round robin meets. The coefficients differ by pair, and with
// them the G2 walk: (2, −1) for replicas 1–2, (3, −2) for 2–3 and
// (3/2, −1/2) for 3–1, the last two full-width scalars mod r.
func BenchmarkCombine(b *testing.B) {
	_, signers := newThresholdKGC(b, 2, 3, 7)
	const id = "pump-station-9"
	for _, pair := range [][2]int{{1, 2}, {2, 3}, {3, 1}} {
		ks := []*KeyShare{signers[pair[0]-1].Issue(id), signers[pair[1]-1].Issue(id)}
		b.Run(fmt.Sprintf("%d-%d", pair[0], pair[1]), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := Combine(id, ks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
