package fr

import (
	"math/rand"
	"testing"

	"mccls/internal/cttest"
)

// ctThreshold is the |t| ceiling of the timing smokes; see the fp package's
// ct_test.go for why it is this generous.
const ctThreshold = 25

func ctRandElement(rng *rand.Rand) (z Element) {
	for i := range z {
		z[i] = rng.Uint64()
	}
	z[3] >>= 3 // below 2^253 < r: canonical
	return z
}

// ctMeasure times op over a fixed-input class and a random-input class and
// returns the worst |t|.
func ctMeasure(rng *rand.Rand, fixed Element, batch int, op func(x *Element)) float64 {
	const rounds = 16
	var pools [2][rounds][]Element
	for class := range pools {
		for r := range pools[class] {
			xs := make([]Element, batch)
			for i := range xs {
				xs[i] = fixed
				if class == 1 {
					xs[i] = ctRandElement(rng)
				}
			}
			pools[class][r] = xs
		}
	}
	round := 0
	return cttest.MaxT(cttest.Collect(400, 5, func(class int) {
		xs := pools[class][round%rounds]
		round++
		for i := range xs {
			op(&xs[i])
		}
	}))
}

// TestConstantTimeInverse is the scalar-field leg of fp's smoke of the same
// name: the shared division-step inversion under the modulus r, fixed
// classes chosen where a variable-time gcd would stop early or late.
func TestConstantTimeInverse(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping Inverse timing smoke in -short mode")
	}
	rng := rand.New(rand.NewSource(44))
	rm1 := r
	rm1[0]--
	for name, fixed := range map[string]Element{
		"random": ctRandElement(rng), "one": {1}, "r-1": rm1, "sparse": {0, 0, 0, 1 << 60},
	} {
		var sink Element
		if tstat := ctMeasure(rng, fixed, 4, func(x *Element) { sink.Inverse(x) }); tstat > ctThreshold {
			t.Errorf("Inverse timing leak (fixed class %s): |t| = %.2f > %d", name, tstat, ctThreshold)
		}
	}
}

// TestConstantTimeMul covers the CIOS pass and its final mask select.
func TestConstantTimeMul(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	y := ctRandElement(rng)
	var sink Element
	if tstat := ctMeasure(rng, Element{}, 256, func(x *Element) { sink.Mul(x, &y) }); tstat > ctThreshold {
		t.Errorf("Mul timing leak: |t| = %.2f > %d", tstat, ctThreshold)
	}
}
