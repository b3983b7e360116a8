// Batch verification: a CPS gateway collects a burst of signed telemetry
// readings from one sensor and verifies them all with one two-pair
// multi-pairing. McCLS inherits this from the Yoon–Cheon–Kim batch IBS it
// adapts: the S component of a signature is message-independent, so n
// same-signer signatures fold into one pair against S and one against
// P_pub — the one-signer case of the equation VerifyMulti checks.
//
//	go run ./examples/batch-verify
package main

import (
	"fmt"
	"log"
	"time"

	"mccls"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	kgc, err := mccls.Setup(nil)
	if err != nil {
		return err
	}
	params := kgc.Params()
	sensor, err := mccls.GenerateKeyPair(params, kgc.ExtractPartialPrivateKey("sensor-42"), nil)
	if err != nil {
		return err
	}

	// The sensor signs a burst of readings (no pairings on the sensor).
	const n = 16
	msgs := make([][]byte, n)
	sigs := make([]*mccls.Signature, n)
	for i := range msgs {
		msgs[i] = fmt.Appendf(nil, "reading %02d: temp=%.1fC", i, 20.0+float64(i)/10)
		if sigs[i], err = mccls.Sign(params, sensor, msgs[i], nil); err != nil {
			return err
		}
	}

	vf := mccls.NewVerifier(params)
	batch := vf.Batch(mccls.BatchOptions{})

	// One-by-one: n pairings.
	start := time.Now()
	for i := range msgs {
		if err := vf.Verify(sensor.Public(), msgs[i], sigs[i]); err != nil {
			return err
		}
	}
	oneByOne := time.Since(start)

	// Batched: two Miller pairs and one final exponentiation for the
	// whole burst.
	start = time.Now()
	if err := batch.VerifySameSigner(sensor.Public(), msgs, sigs); err != nil {
		return err
	}
	batched := time.Since(start)

	fmt.Printf("%d readings verified\n", n)
	fmt.Printf("  one-by-one: %v (%d pairings)\n", oneByOne.Round(time.Millisecond), n)
	fmt.Printf("  batched:    %v (2 Miller pairs, 1 final exp)  → %.1fx faster\n",
		batched.Round(time.Millisecond), float64(oneByOne)/float64(batched))

	// A single corrupted reading fails the batch, and the engine's
	// bisection names it — no one-by-one fallback needed.
	msgs[7] = []byte("reading 07: temp=999.9C")
	err = batch.VerifySameSigner(sensor.Public(), msgs, sigs)
	if err == nil {
		return fmt.Errorf("tampered batch passed")
	}
	fmt.Printf("tampered batch rejected ✓ (offending readings: %v)\n", mccls.BatchOffenders(err))
	return nil
}
