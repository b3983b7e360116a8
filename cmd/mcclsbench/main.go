// Command mcclsbench regenerates the paper's Table 1: the operation-count
// comparison of the AP, ZWXF, YHG and McCLS certificateless signature
// schemes, extended with wall-clock sign/verify timings measured on this
// machine's BN254 substrate.
//
// Usage:
//
//	mcclsbench [-iters N] [-csv]
//
// Per-primitive timings (pairing, scalar multiplications, hash-to-curve)
// and the batch-verification sweep are the repository benchmark's per-layer
// metrics: bash bench/run.sh --workload auth_warm --trace 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mccls/manet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mcclsbench:", err)
		os.Exit(1)
	}
}

func run() error {
	iters := flag.Int("iters", 10, "sign/verify iterations per scheme")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	flag.Parse()

	if *iters < 1 {
		return fmt.Errorf("-iters must be at least 1, got %d", *iters)
	}

	rows, err := manet.Table1(*iters, nil)
	if err != nil {
		return err
	}
	if *csv {
		fmt.Println("scheme,sign_ops,verify_ops,pubkey_len,sign_ms,verify_ms")
		for _, r := range rows {
			fmt.Printf("%s,%s,%s,%s,%.3f,%.3f\n",
				r.Scheme, r.Sign, r.Verify, r.PubKeyLen,
				float64(r.SignTime)/float64(time.Millisecond),
				float64(r.VerifyTime)/float64(time.Millisecond))
		}
		return nil
	}
	fmt.Println("Table 1 — Comparison of the CLS Schemes")
	fmt.Println("(s: scalar multiplication; p: pairing; e: exponentiation)")
	fmt.Println()
	fmt.Print(manet.RenderTable1(rows))
	return nil
}
