//go:build amd64

package tensor

// Popcount dispatch for XorPopcounts4, by CPUID at init: AVX-512 VPOPCNTQ
// counts eight words per instruction; without it the pure-Go loop runs.

// haveAVX512POPCNT reports AVX-512 F and VPOPCNTDQ, AVX2, and OS-enabled
// opmask and ZMM state in XCR0.
var haveAVX512POPCNT = func() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	if ecx1&(1<<27) == 0 { // OSXSAVE
		return false
	}
	_, ebx7, ecx7, _ := cpuidex(7, 0)
	const avx2, avx512f, vpopcntdq = 1 << 5, 1 << 16, 1 << 14
	if ebx7&avx2 == 0 || ebx7&avx512f == 0 || ecx7&vpopcntdq == 0 {
		return false
	}
	eax, _ := xgetbv0()
	return eax&0xe6 == 0xe6 // XMM, YMM, opmask, ZMM_Hi256, Hi16_ZMM
}()

//go:noescape
func xorPopcounts4avx512(counts *int32, w, x *uint64, n, rows int)

func xorPopcounts4(counts []int32, w, x []uint64, n int) {
	if rows := len(x) / n; rows > 0 && haveAVX512POPCNT {
		xorPopcounts4avx512(&counts[0], &w[0], &x[0], n, rows)
		return
	}
	xorPopcounts4go(counts, w, x, n)
}
