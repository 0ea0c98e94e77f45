package tensor

import "testing"

// The AVX-512 kernel, when this CPU runs it, counts exactly what the
// pure-Go kernel does.
func TestXorPopcountsAsmMatchesGo(t *testing.T) {
	if !haveAVX512POPCNT {
		t.Skip("no AVX-512 VPOPCNTQ on this CPU")
	}
	checkXorPopcounts(t, "avx512", func(counts []int32, w, x []uint64, n int) {
		xorPopcounts4avx512(&counts[0], &w[0], &x[0], n, len(x)/n)
	})
}
