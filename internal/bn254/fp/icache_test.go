//go:build linux && amd64 && !purego

package fp

import (
	"debug/elf"
	"debug/gosym"
	"os"
	"strings"
	"testing"
)

// TestPairingKernelsFitICache holds the pairing's hot Fp12 kernels to a
// 32 KiB L1 instruction cache together, the property their loops are for:
// the final exponentiation interleaves the cyclotomic squaring with the
// Fp12 product, and the Miller loop the Fp6 product with the sparse fold, so
// unrolled kernels would evict each other. It reads the kernels' sizes from
// this test binary's ELF, and no clock: `go test` links without a symbol
// table, so from the Go function table (.gopclntab), whose extents include
// each function's alignment padding.
func TestPairingKernelsFitICache(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	f, err := elf.Open(exe)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	text, pcln := f.Section(".text"), f.Section(".gopclntab")
	if text == nil || pcln == nil {
		t.Fatalf("%s has no .text or .gopclntab section", exe)
	}
	data, err := pcln.Data()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := gosym.NewTable(nil, gosym.NewLineTable(data, text.Addr))
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]uint64{"fpCycSquare": 0, "fpMulE6": 0, "fpMulE12": 0, "fpMulBySparse": 0}
	for _, fn := range tab.Funcs {
		for k := range sizes {
			// The assembly body, not the ABI wrapper of the same name.
			if strings.HasSuffix(fn.Name, "/fp."+k) {
				sizes[k] = max(sizes[k], fn.End-fn.Entry)
			}
		}
	}
	var total uint64
	for k, n := range sizes {
		if n == 0 {
			t.Errorf("kernel %s not found in %s", k, exe)
		}
		total += n
	}
	t.Logf("kernel bytes: %v, total %d", sizes, total)
	if total > 32<<10 {
		t.Errorf("the hot Fp12 kernels take %d bytes, more than a 32 KiB L1i", total)
	}
}
