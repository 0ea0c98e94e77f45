package tensor

// Portable microkernel implementations. The GEMM and fused-conv drivers
// call kern4x8 / kern1x8 (dispatched per GOARCH in gemm_kernels_amd64.go /
// gemm_kernels_other.go); these pure-Go bodies are the reference semantics
// and the fallback for non-amd64 builds or CPUs without AVX.
//
// Panel layout (shared with the AVX kernels and the pack routines): one
// sliver holds gemmNR consecutive output columns interleaved by depth —
// element (kk, lane) lives at bp[kk*gemmNR+lane] — so a single vector load
// reads one depth step of all gemmNR columns.
//
// Determinism: lane j of accumulator row r is the single ascending-k chain
// acc[r][j] += a_r[kk] * bp[kk*8+j]. AVX vmulps/vaddps round each lane
// exactly like scalar mulss/addss, so the asm and Go kernels are bitwise
// interchangeable (pinned by TestKernelAsmMatchesGo).

// kern4x8go accumulates a 4-row x 8-column tile into acc from zero:
// acc[r][j] = sum_kk a_r[kk] * bp[kk*8+j], ascending kk.
func kern4x8go(a0, a1, a2, a3, bp []float32, acc *[4][8]float32) {
	var t [4][8]float32
	bp = bp[: len(a0)*8 : len(a0)*8]
	for kk, av0 := range a0 {
		av1, av2, av3 := a1[kk], a2[kk], a3[kk]
		bb := bp[kk*8:][:8]
		for j, bv := range bb {
			t[0][j] += float32(av0 * bv)
			t[1][j] += float32(av1 * bv)
			t[2][j] += float32(av2 * bv)
			t[3][j] += float32(av3 * bv)
		}
	}
	*acc = t
}

// kern1x8go is the single-row remainder kernel with the same per-lane
// chains.
func kern1x8go(a0, bp []float32, acc *[8]float32) {
	var t [8]float32
	bp = bp[: len(a0)*8 : len(a0)*8]
	for kk, av := range a0 {
		bb := bp[kk*8:][:8]
		for j, bv := range bb {
			t[j] += float32(av * bv)
		}
	}
	*acc = t
}
