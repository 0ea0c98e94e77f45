//go:build !amd64

package tensor

func xorPopcounts4(counts []int32, w, x []uint64, n int) {
	xorPopcounts4go(counts, w, x, n)
}
