package bn254

import "sync/atomic"

// Operation counters for instrumentation: tests use them to verify that
// the CLS schemes really perform the pairing/scalar-multiplication counts
// the paper's Table 1 claims, rather than trusting static annotations.
// Counting is always on and process-global, like expvar counters: one
// atomic add per counted operation, the finest-grained being a cyclotomic
// squaring or a sparse line multiplication (tens of Montgomery
// multiplications each). All workers share the counters, so concurrent
// batches see each other's operations; scoping them to a Verifier or batch
// run is a ROADMAP item.

// OpCounts is a snapshot of the global operation counters.
type OpCounts struct {
	Pairings      uint64 // Miller loops executed (PairingCheck counts one per pair)
	FinalExps     uint64 // final exponentiations
	G1ScalarMults uint64 // one per ScalarMult and per fixed-base pass
	G2ScalarMults uint64 // one per ScalarMult, subgroup check, cofactor clearing and joint-ladder point
	GTExps        uint64

	// Kernel-level counters for the fast pairing path. LineDoubles and
	// LineAdds count projective Miller-loop steps, SparseMuls the sparse
	// line-times-Fp12 accumulations, CycSquares the Granger–Scott
	// cyclotomic squarings in the final exponentiation and GT ladders.
	// Regression tests pin these against the ate-loop structure so that a
	// refactor silently falling back to dense or generic arithmetic fails
	// loudly instead of just slowing down.
	LineDoubles uint64
	LineAdds    uint64
	SparseMuls  uint64
	CycSquares  uint64

	// MillerSquarings counts Fp12 squarings of the Miller-loop accumulator.
	// The lockstep multi-pairing kernel shares ONE squaring per ate-loop
	// iteration across the whole batch, so a batch of n pairs performs 65
	// squarings total (not 65·n) while LineDoubles/LineAdds/SparseMuls keep
	// scaling with n — the amortization TestMillerLoopMultiOpCounts pins.
	// A line table's replay (G2Lines.MillerLoop) is one pair's loop of its
	// own: 65 squarings and no G2 step.
	MillerSquarings uint64
}

var opCounters struct {
	pairings        atomic.Uint64
	finalExps       atomic.Uint64
	g1Mults         atomic.Uint64
	g2Mults         atomic.Uint64
	gtExps          atomic.Uint64
	lineDoubles     atomic.Uint64
	lineAdds        atomic.Uint64
	sparseMuls      atomic.Uint64
	cycSquares      atomic.Uint64
	millerSquarings atomic.Uint64
}

// ReadOpCounts returns the current counter values.
func ReadOpCounts() OpCounts {
	return OpCounts{
		Pairings:        opCounters.pairings.Load(),
		FinalExps:       opCounters.finalExps.Load(),
		G1ScalarMults:   opCounters.g1Mults.Load(),
		G2ScalarMults:   opCounters.g2Mults.Load(),
		GTExps:          opCounters.gtExps.Load(),
		LineDoubles:     opCounters.lineDoubles.Load(),
		LineAdds:        opCounters.lineAdds.Load(),
		SparseMuls:      opCounters.sparseMuls.Load(),
		CycSquares:      opCounters.cycSquares.Load(),
		MillerSquarings: opCounters.millerSquarings.Load(),
	}
}

// Sub returns the per-field difference c - earlier; use a before/after pair
// of ReadOpCounts snapshots to attribute operations to a code region.
func (c OpCounts) Sub(earlier OpCounts) OpCounts {
	return OpCounts{
		Pairings:        c.Pairings - earlier.Pairings,
		FinalExps:       c.FinalExps - earlier.FinalExps,
		G1ScalarMults:   c.G1ScalarMults - earlier.G1ScalarMults,
		G2ScalarMults:   c.G2ScalarMults - earlier.G2ScalarMults,
		GTExps:          c.GTExps - earlier.GTExps,
		LineDoubles:     c.LineDoubles - earlier.LineDoubles,
		LineAdds:        c.LineAdds - earlier.LineAdds,
		SparseMuls:      c.SparseMuls - earlier.SparseMuls,
		CycSquares:      c.CycSquares - earlier.CycSquares,
		MillerSquarings: c.MillerSquarings - earlier.MillerSquarings,
	}
}
