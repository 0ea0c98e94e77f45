package tensor

import "math/bits"

// XorPopcounts4 is the integer core of the XNOR dot products in
// internal/binary. w holds four bit rows of n words back to back and x any
// number of rows of n words; for every row j of x and r < 4 it writes
//
//	counts[4*j+r] = Σ_i popcount(w[r*n+i] XOR x[j*n+i])
//
// — the number of bits in which the two rows differ. Each word of x is
// loaded once per four weight rows. On amd64 CPUs with AVX-512 VPOPCNTQ
// (detected at init) an assembly loop runs; everywhere else, js/wasm
// included, xorPopcounts4go. Counts are integers, so both kernels give the
// same ones (TestXorPopcountsAsmMatchesGo).
func XorPopcounts4(counts []int32, w, x []uint64, n int) {
	if n <= 0 || len(w) != 4*n || len(x)%n != 0 || len(counts) < 4*(len(x)/n) {
		panic("tensor: XorPopcounts4 lengths do not match")
	}
	xorPopcounts4(counts, w, x, n)
}

// xorPopcounts4go is the pure-Go XorPopcounts4.
func xorPopcounts4go(counts []int32, w, x []uint64, n int) {
	w0, w1, w2, w3 := w[:n], w[n:2*n], w[2*n:3*n], w[3*n:4*n]
	for j := 0; j < len(x)/n; j++ {
		xr := x[j*n : (j+1)*n]
		var d0, d1, d2, d3 int
		for i, v := range xr {
			d0 += bits.OnesCount64(v ^ w0[i])
			d1 += bits.OnesCount64(v ^ w1[i])
			d2 += bits.OnesCount64(v ^ w2[i])
			d3 += bits.OnesCount64(v ^ w3[i])
		}
		c := counts[4*j : 4*j+4]
		c[0], c[1], c[2], c[3] = int32(d0), int32(d1), int32(d2), int32(d3)
	}
}
