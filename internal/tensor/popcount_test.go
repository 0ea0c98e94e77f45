package tensor

import (
	"math/rand"
	"testing"
)

// checkXorPopcounts runs kernel over rows of every length from one word to
// past a 64-word row, in whole and partial eight-word chunks, and compares
// each count with a bit-by-bit count.
func checkXorPopcounts(t *testing.T, name string, kernel func(counts []int32, w, x []uint64, n int)) {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 7, 8, 9, 16, 27, 47, 64, 65} {
		for _, rows := range []int{1, 2, 7, 64} {
			w := make([]uint64, 4*n)
			x := make([]uint64, rows*n)
			for i := range w {
				w[i] = r.Uint64()
			}
			for i := range x {
				x[i] = r.Uint64()
			}
			got := make([]int32, 4*rows)
			kernel(got, w, x, n)
			for j := 0; j < rows; j++ {
				for k := 0; k < 4; k++ {
					var want int32
					for i := 0; i < n; i++ {
						for d := w[k*n+i] ^ x[j*n+i]; d != 0; d &= d - 1 {
							want++
						}
					}
					if got[4*j+k] != want {
						t.Fatalf("%s: n=%d rows=%d row %d weight %d: %d, bitwise %d",
							name, n, rows, j, k, got[4*j+k], want)
					}
				}
			}
		}
	}
}

// The pure-Go kernel and the one this CPU dispatches to count exactly what
// a bit-by-bit count does.
func TestXorPopcountsMatchBitwise(t *testing.T) {
	checkXorPopcounts(t, "go", xorPopcounts4go)
	checkXorPopcounts(t, "dispatched", XorPopcounts4)
}
