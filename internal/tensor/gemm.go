package tensor

import "sync"

// Cache-blocked GEMM in the GotoBLAS/BLIS style. The operand B is packed
// one (gemmKC x gemmNC) block at a time into an interleaved sliver panel —
// gemmNR consecutive output columns laid out depth-major so one vector
// load reads a depth step of all gemmNR columns — and a gemmMR x gemmNR
// register-blocked microkernel (AVX on amd64, pure Go elsewhere; see
// gemm_kernels*.go) accumulates C tiles while reading A directly from its
// row-major rows (A rows are contiguous already, so a separate A pack buys
// nothing at these sizes). The panel (256 KiB) fits comfortably in L2 and
// B is read from memory once per panel instead of once per C row — the
// failure mode of the 4-wide unrolled kernel on rest-of-AlexNet shapes.
// The scalar unrolled kernel already sits at the scalar ceiling of ~1
// multiply-add per cycle (mul and add share the two FP ports), so the
// headroom is in the vector units: the microkernel vectorizes across
// output columns, which speeds up every lane without touching any lane's
// accumulation order.
//
// Determinism contract: every output element is accumulated in a fixed
// order — for each KC block in ascending order, a single ascending-k chain
// into a register lane, then one `+=` into C. The AVX kernel uses
// vmulps+vaddps (never FMA), so each vector lane rounds exactly like the
// scalar expression and the asm and Go kernels are bitwise
// interchangeable. Parallelism is over gemmMR-row strips of C only, so
// chunk boundaries cannot change any element's accumulation order: serial,
// parallel, and any worker count are bitwise identical (pinned by
// TestMatMulBlockedSerialParallelBitwise and the matMulBlockedRef
// cross-check in gemm_test.go). The result is NOT bitwise identical to
// MatMulUnrolledInto — the per-KC-block partial sums associate differently
// — which is why MatMulInto's dispatch is pinned by a tolerance test,
// while the fused convolution path (convgemm.go) uses a single full-K
// chain and stays bitwise identical to the legacy conv kernel.
const (
	gemmMR = 4   // microkernel height: rows of A/C per register tile
	gemmNR = 8   // microkernel width: one AVX vector of output columns
	gemmKC = 256 // K blocking: one packed sliver is kcLen*gemmNR*4 <= 8 KiB
	gemmNC = 256 // N blocking: one panel is gemmKC*gemmNC floats = 256 KiB, L2-resident
)

// blockedMinWork is the k*n product below which MatMulInto keeps the
// 4-wide unrolled kernel: the whole B operand already fits in L1/L2 and
// the pack step would be pure overhead.
const blockedMinWork = 1 << 15

// gemmPanelPool recycles pack buffers across MatMulInto calls so the
// training loops that hammer MatMul stay allocation-free at steady state.
// The fused convolution path does not use it — serving replicas own their
// panels (arena-backed), so the hot path never touches a sync.Pool.
var gemmPanelPool = sync.Pool{
	New: func() any {
		buf := make([]float32, gemmKC*gemmNC)
		return &buf
	},
}

// packPanel copies the B block rows [kc, kc+kcLen) x columns [jc, jc+nc)
// into panel slivers: panel[(sv*kcLen+kk)*gemmNR+r] = B[kc+kk][jc+sv*gemmNR+r].
// Lanes past nc are zero-filled so the microkernel never branches on width
// (the zero lanes accumulate values that are simply not stored).
func packPanel(panel, b []float32, n, kc, kcLen, jc, nc int) {
	ns := (nc + gemmNR - 1) / gemmNR
	for sv := 0; sv < ns; sv++ {
		j0 := jc + sv*gemmNR
		w := min(gemmNR, jc+nc-j0)
		dst := panel[sv*kcLen*gemmNR:][: kcLen*gemmNR : kcLen*gemmNR]
		if w == gemmNR {
			for kk := 0; kk < kcLen; kk++ {
				src := b[(kc+kk)*n+j0 : (kc+kk)*n+j0+gemmNR]
				d := dst[kk*gemmNR : kk*gemmNR+gemmNR]
				copy(d, src)
			}
			continue
		}
		for kk := 0; kk < kcLen; kk++ {
			src := b[(kc+kk)*n+j0:]
			d := dst[kk*gemmNR : kk*gemmNR+gemmNR]
			for r := 0; r < w; r++ {
				d[r] = src[r]
			}
			for r := w; r < gemmNR; r++ {
				d[r] = 0
			}
		}
	}
}

// matMulBlocked is the blocked driver: loop over NC column blocks, then KC
// depth blocks; pack the B panel once per (jc, kc); parallelize the C
// update over gemmMR-row strips. The strip body is one closure reused
// across every ParallelFor invocation — the block coordinates it reads are
// only mutated between fully-joined ParallelFor calls.
func matMulBlocked(cd, ad, bd []float32, m, k, n int, panel []float32) {
	for i := range cd[: m*n : m*n] {
		cd[i] = 0
	}
	strips := (m + gemmMR - 1) / gemmMR
	var jc, nc, kc, kcLen int
	body := func(lo, hi int) {
		ns := (nc + gemmNR - 1) / gemmNR
		for s := lo; s < hi; s++ {
			i0 := s * gemmMR
			for sv := 0; sv < ns; sv++ {
				j0 := sv * gemmNR
				w := min(gemmNR, nc-j0)
				bp := panel[sv*kcLen*gemmNR:][: kcLen*gemmNR : kcLen*gemmNR]
				if i0+gemmMR <= m {
					a0 := ad[i0*k+kc:][:kcLen]
					a1 := ad[(i0+1)*k+kc:][:kcLen]
					a2 := ad[(i0+2)*k+kc:][:kcLen]
					a3 := ad[(i0+3)*k+kc:][:kcLen]
					var acc [gemmMR][gemmNR]float32
					kern4x8(a0, a1, a2, a3, bp, &acc)
					for r := 0; r < gemmMR; r++ {
						cr := cd[(i0+r)*n+jc+j0:]
						for j := 0; j < w; j++ {
							cr[j] += acc[r][j]
						}
					}
					continue
				}
				for i := i0; i < m; i++ {
					var acc [gemmNR]float32
					kern1x8(ad[i*k+kc:][:kcLen], bp, &acc)
					cr := cd[i*n+jc+j0:]
					for j := 0; j < w; j++ {
						cr[j] += acc[j]
					}
				}
			}
		}
	}
	for jc = 0; jc < n; jc += gemmNC {
		nc = min(gemmNC, n-jc)
		for kc = 0; kc < k; kc += gemmKC {
			kcLen = min(gemmKC, k-kc)
			packPanel(panel, bd, n, kc, kcLen, jc, nc)
			ParallelFor(strips, body)
		}
	}
}

// MatMulTransBInto computes dst = a x b^T for a (m x k) and b (n x k) into
// a preallocated (m x n) dst, parallelized over output columns. Every
// output element is one ascending-k dot product — the same chain as the
// historical MatMulTransB loop — so the result is bitwise identical to the
// serial scalar reference for any worker count or chunk boundary.
func MatMulTransBInto(dst, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic("tensor: MatMulTransBInto shape mismatch")
	}
	ParallelFor(n, func(lo, hi int) { TransBRange(dst, a, b, lo, hi) })
}

// TransBRange computes output columns [jLo, jHi) of dst = a x b^T. It is
// exported (rather than folded into MatMulTransBInto) so callers that must
// not allocate per forward — nn.Linear's single-row eval path drives
// ParallelFor with a persistent method value — can chunk the column range
// themselves; batches of two or more rows go through FCGemmState, which
// computes the same chains. Four
// B rows are processed per sweep of A so each A row is read once per four
// output columns; per-element values are single-chain dot products and do
// not depend on jLo alignment.
func TransBRange(dst, a, b *Tensor, jLo, jHi int) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	ad, bd, cd := a.Data, b.Data, dst.Data
	j := jLo
	for ; j+4 <= jHi; j += 4 {
		b0 := bd[j*k:][:k]
		b1 := bd[(j+1)*k:][:k]
		b2 := bd[(j+2)*k:][:k]
		b3 := bd[(j+3)*k:][:k]
		for i := 0; i < m; i++ {
			ar := ad[i*k:][:k]
			var q0, q1, q2, q3 float32
			for kk, av := range ar {
				q0 += float32(av * b0[kk])
				q1 += float32(av * b1[kk])
				q2 += float32(av * b2[kk])
				q3 += float32(av * b3[kk])
			}
			cr := cd[i*n+j : i*n+j+4]
			cr[0], cr[1], cr[2], cr[3] = q0, q1, q2, q3
		}
	}
	for ; j < jHi; j++ {
		br := bd[j*k:][:k]
		for i := 0; i < m; i++ {
			ar := ad[i*k:][:k]
			var s float32
			for kk, av := range ar {
				s += float32(av * br[kk])
			}
			cd[i*n+j] = s
		}
	}
}
