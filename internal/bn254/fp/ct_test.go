package fp

import (
	"math/rand"
	"testing"

	"mccls/internal/cttest"
)

// ctThreshold is the deliberately generous |t| ceiling for the timing
// smokes: dudect flags |t| > 10 as a leak under lab conditions, but CI
// runners share cores and the measured kernels sit near the timer's
// resolution, so we only fail on leaks an order of magnitude above the
// noise floor. Reintroducing a data-dependent branch (e.g. an early
// exit in the conditional subtraction) pushes |t| into the hundreds.
const ctThreshold = 25

// ctRandElement returns a uniformly random canonical element.
func ctRandElement(rng *rand.Rand) Element {
	var z Element
	for i := range z {
		z[i] = rng.Uint64()
	}
	z[3] &= (1 << 62) - 1 // below 2^254 > q, then reduce to canonical
	z.reduce()
	z.reduce()
	return z
}

// ctPools builds per-class input pools: pool[0] repeats the fixed
// element, pool[1] holds fresh random elements. Both classes touch the
// same amount of memory in the same pattern; only the values differ.
func ctPools(rng *rand.Rand, batch, rounds int, fixed Element) [2][][]Element {
	var pools [2][][]Element
	for class := 0; class < 2; class++ {
		pools[class] = make([][]Element, rounds)
		for r := 0; r < rounds; r++ {
			xs := make([]Element, batch)
			for i := range xs {
				if class == 0 {
					xs[i] = fixed
				} else {
					xs[i] = ctRandElement(rng)
				}
			}
			pools[class][r] = xs
		}
	}
	return pools
}

// TestConstantTimeMul interleaves fixed-input and random-input batches
// of the dispatched Mul and applies Welch's t-test to the two timing
// populations.
func TestConstantTimeMul(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const batch, rounds = 512, 16
	fixed := ctRandElement(rng)
	xs := ctPools(rng, batch, rounds, fixed)
	ys := ctPools(rng, batch, rounds, fixed)
	var sink Element
	round := 0
	s := cttest.Collect(1500, 1, func(class int) {
		x, y := xs[class][round%rounds], ys[class][round%rounds]
		round++
		for i := 0; i < batch; i++ {
			sink.Mul(&x[i], &y[i])
		}
	})
	if tstat := cttest.MaxT(s); tstat > ctThreshold {
		t.Errorf("Mul timing leak: |t| = %.2f > %d (SupportAdx %v)", tstat, ctThreshold, SupportAdx)
	}
	_ = sink
}

// TestConstantTimeInverse does the same for Inverse. Since the Fermat chain
// went, what must not branch is the division-step loop, not an exponent
// schedule, so the fixed class is run over the inputs a variable-time gcd
// would finish early or late on — the integers 1 and q-1 as the inversion
// sees them (raw limbs), a value with long zero runs — as well as a random
// element, each against fresh random inputs.
func TestConstantTimeInverse(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping Inverse timing smoke in -short mode")
	}
	rng := rand.New(rand.NewSource(43))
	const batch, rounds = 4, 16
	fixeds := map[string]Element{
		"random": ctRandElement(rng),
		"one":    {1},
		"q-1":    {q0 - 1, q1, q2, q3},
		"sparse": {0, 0, 0, 1 << 60},
	}
	for name, fixed := range fixeds {
		xs := ctPools(rng, batch, rounds, fixed)
		var sink Element
		round := 0
		s := cttest.Collect(400, 2, func(class int) {
			x := xs[class][round%rounds]
			round++
			for i := 0; i < batch; i++ {
				sink.Inverse(&x[i])
			}
		})
		if tstat := cttest.MaxT(s); tstat > ctThreshold {
			t.Errorf("Inverse timing leak (fixed class %s): |t| = %.2f > %d", name, tstat, ctThreshold)
		}
	}
}

// TestConstantTimeSign lives in internal/core; the base-field smokes
// here cover the kernels it bottoms out in.
