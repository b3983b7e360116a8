package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"mccls/internal/schemes"
)

// Table1Row is one scheme's entry in the paper's Table 1, extended with
// wall-clock measurements on this machine's BN254 substrate.
type Table1Row struct {
	Scheme string
	// Sign, Verify and PubKeyLen are the symbolic operation counts
	// exactly as printed in the paper (p = pairing, s = scalar
	// multiplication, e = exponentiation).
	Sign      string
	Verify    string
	PubKeyLen string
	// SignTime and VerifyTime are measured means over the benchmark
	// iterations.
	SignTime   time.Duration
	VerifyTime time.Duration
}

// opString renders counts in the paper's "1p+3s" notation.
func opString(pairings, scalars, exps int) string {
	var parts []string
	if pairings > 0 {
		parts = append(parts, fmt.Sprintf("%dp", pairings))
	}
	if scalars > 0 {
		parts = append(parts, fmt.Sprintf("%ds", scalars))
	}
	if exps > 0 {
		parts = append(parts, fmt.Sprintf("%de", exps))
	}
	if len(parts) == 0 {
		return "0"
	}
	return strings.Join(parts, "+")
}

// Table1 regenerates the scheme comparison: operation profiles from the
// paper plus sign/verify wall-clock means over iters iterations per scheme.
// The verifier caches are warmed first where the published counts assume
// caching (McCLS, YHG), so measurements reflect steady state.
// Measurement is strictly serial — timings would be meaningless with
// schemes contending for the CPU.
func Table1(iters int, rng io.Reader) ([]Table1Row, error) {
	if iters <= 0 {
		iters = 5
	}
	msg := []byte("Table 1 benchmark message: AODV RREQ payload equivalent")
	var rows []Table1Row
	for _, sch := range schemes.All() {
		p := sch.Profile()
		sys, err := sch.Setup(rng)
		if err != nil {
			return nil, fmt.Errorf("table1: %s setup: %w", p.Name, err)
		}
		user, err := sys.NewUser("bench-node", rng)
		if err != nil {
			return nil, fmt.Errorf("table1: %s enroll: %w", p.Name, err)
		}
		// Warm the per-identity caches so steady-state cost is measured.
		warm, err := user.Sign(msg, rng)
		if err != nil {
			return nil, fmt.Errorf("table1: %s warm sign: %w", p.Name, err)
		}
		if err := sys.Verify(user.ID(), user.PublicKey(), msg, warm); err != nil {
			return nil, fmt.Errorf("table1: %s warm verify: %w", p.Name, err)
		}

		sigs := make([][]byte, iters)
		start := time.Now()
		for i := 0; i < iters; i++ {
			if sigs[i], err = user.Sign(msg, rng); err != nil {
				return nil, fmt.Errorf("table1: %s sign: %w", p.Name, err)
			}
		}
		signTime := time.Since(start) / time.Duration(iters)

		start = time.Now()
		for i := 0; i < iters; i++ {
			if err := sys.Verify(user.ID(), user.PublicKey(), msg, sigs[i]); err != nil {
				return nil, fmt.Errorf("table1: %s verify: %w", p.Name, err)
			}
		}
		verifyTime := time.Since(start) / time.Duration(iters)

		rows = append(rows, Table1Row{
			Scheme:     p.Name,
			Sign:       opString(p.SignPairings, p.SignScalarMults, 0),
			Verify:     opString(p.VerifyPairings, p.VerifyScalarMults, p.VerifyExps),
			PubKeyLen:  fmt.Sprintf("%d point(s)", p.PublicKeyPoints),
			SignTime:   signTime,
			VerifyTime: verifyTime,
		})
	}
	return rows, nil
}

// RenderTable1 formats the rows like the paper's Table 1 with measured
// timings appended.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-10s %-10s %-12s %14s %14s\n",
		"Scheme", "Sign", "Verify", "PubKey Len", "Sign (ms)", "Verify (ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-10s %-10s %-12s %14.2f %14.2f\n",
			r.Scheme, r.Sign, r.Verify, r.PubKeyLen,
			float64(r.SignTime)/float64(time.Millisecond),
			float64(r.VerifyTime)/float64(time.Millisecond))
	}
	return b.String()
}
