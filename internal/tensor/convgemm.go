package tensor

// Fused im2col + GEMM convolution forward. The training conv path
// materializes the full (outH*outW) x (C*KH*KW) im2col matrix (Backward
// needs it) before multiplying; eval convolutions never do.
// Here the receptive fields are packed straight into a K x convNC sliver
// panel (ConvGeom.PackColsPanel), the microkernel consumes the panel, and
// the panel is reused for the next convNC output positions: only one
// L2-sized panel ever exists.
//
// Determinism contract: unlike the blocked MatMul (which re-associates
// across KC blocks), the fused path keeps a SINGLE full-K ascending
// accumulation chain per output element followed by one bias add — exactly
// the order the training conv kernel uses — so fused output is bitwise
// identical to a training forward of the same layer, pinned by the fuse
// test in internal/nn. Parallelism is over gemmMR-row output-channel
// strips of one sample (Run) or over whole samples of a batch, each run
// inline (RunInline), so worker count and chunk boundaries cannot change
// any element's chain.

// convNC is the position-tile width of the fused-convolution panel: at
// most convNC x K packed values live at a time, never the full patch
// matrix. 64 positions keeps the panel (64*K floats; 147 KiB at AlexNet
// conv2's K=576) inside L2 while still amortizing each pack over OutC
// kernel rows.
const convNC = 64

// ConvPanelLen returns the panel length (in float32s) ConvGemmState needs
// for a convolution with k = InC*KH*KW kernel elements and p = outH*outW
// output positions.
func ConvPanelLen(k, p int) int {
	nc := min(convNC, p)
	ns := (nc + gemmNR - 1) / gemmNR
	return k * ns * gemmNR
}

// ConvGemmState drives the fused forward for one sample:
//
//	Out (OutC x P) = W (OutC x K) x im2col(Img)^T (K x P)  [+ Bias]
//
// The struct is embedded in the conv layers and reused across calls so a
// steady-state serving replica performs no per-forward allocations: the
// ParallelFor body is a method value created once, and Panel is
// caller-owned (arena-backed on serving replicas). Not safe for concurrent
// use; each replica owns its own state.
type ConvGemmState struct {
	G     ConvGeom
	OutC  int
	W     []float32 // (OutC x K) row-major weights
	Bias  []float32 // per-output-channel bias; nil for none
	Panel []float32 // caller-owned scratch, >= ConvPanelLen(K, P) floats
	Img   []float32 // current input sample, InC*InH*InW
	Out   []float32 // current output, OutC*P

	k, p, jc, nc int
	kern         func(lo, hi int)
}

// Run executes the fused forward for the current Img into Out, fanning
// each panel's output-channel strips out over ParallelFor.
func (st *ConvGemmState) Run() { st.run(true) }

// RunInline is Run on the calling goroutine alone, for callers that
// already split their work across the pool (a batch's samples).
func (st *ConvGemmState) RunInline() { st.run(false) }

func (st *ConvGemmState) run(fanOut bool) {
	st.k = st.G.InC * st.G.KH * st.G.KW
	st.p = st.G.OutH() * st.G.OutW()
	if len(st.Panel) < ConvPanelLen(st.k, st.p) {
		panic("tensor: ConvGemmState panel too small")
	}
	if st.kern == nil {
		st.kern = st.runStrips
	}
	strips := (st.OutC + gemmMR - 1) / gemmMR
	for jc := 0; jc < st.p; jc += convNC {
		st.jc = jc
		st.nc = min(convNC, st.p-jc)
		st.G.PackColsPanel(st.Panel, st.Img, jc, st.nc)
		if fanOut {
			ParallelFor(strips, st.kern)
		} else {
			st.runStrips(0, strips)
		}
	}
}

// runStrips is the ParallelFor body: output-channel strips [lo, hi) of the
// current panel. Strips write disjoint Out rows. Stores are assignments
// plus one bias add — the fused path runs one full-K block — which is what
// keeps the output bitwise identical to the legacy `s + b` conv kernel.
func (st *ConvGemmState) runStrips(lo, hi int) {
	ns := (st.nc + gemmNR - 1) / gemmNR
	k := st.k
	for s := lo; s < hi; s++ {
		i0 := s * gemmMR
		for sv := 0; sv < ns; sv++ {
			j0 := st.jc + sv*gemmNR
			w := min(gemmNR, st.nc-sv*gemmNR)
			bp := st.Panel[sv*k*gemmNR:][: k*gemmNR : k*gemmNR]
			if i0+gemmMR <= st.OutC {
				a0 := st.W[i0*k:][:k]
				a1 := st.W[(i0+1)*k:][:k]
				a2 := st.W[(i0+2)*k:][:k]
				a3 := st.W[(i0+3)*k:][:k]
				var acc [gemmMR][gemmNR]float32
				kern4x8(a0, a1, a2, a3, bp, &acc)
				for r := 0; r < gemmMR; r++ {
					var b float32
					if st.Bias != nil {
						b = st.Bias[i0+r]
					}
					cr := st.Out[(i0+r)*st.p+j0:]
					for j := 0; j < w; j++ {
						cr[j] = acc[r][j] + b
					}
				}
				continue
			}
			for i := i0; i < st.OutC; i++ {
				var acc [gemmNR]float32
				kern1x8(st.W[i*k:][:k], bp, &acc)
				var b float32
				if st.Bias != nil {
					b = st.Bias[i]
				}
				cr := st.Out[i*st.p+j0:]
				for j := 0; j < w; j++ {
					cr[j] = acc[j] + b
				}
			}
		}
	}
}

// FCPanelLen returns the panel length (in float32s) FCGemmState needs for
// m input rows of k features: one zero-padded gemmNR-row sliver per eight
// rows.
func FCPanelLen(m, k int) int {
	return (m + gemmNR - 1) / gemmNR * gemmNR * k
}

// FCGemmState drives the batched fully connected forward:
//
//	Out (M x N) = X (M x K) x W^T (K x N) + Bias
//
// Four weight rows are the microkernel's A operand, read in place; the
// input rows are packed into gemmNR-row slivers as its B panel
// (Panel[(s*K+kk)*gemmNR+j] = X[s*gemmNR+j][kk], lanes past M zeroed).
// Each weight row therefore streams from memory once per batch of up to
// gemmNR rows, where the row-at-a-time TransBRange sweeps it once per row.
// Every output is one full-K ascending chain started from zero plus one
// bias add — the chain TransBRange computes — so the result is bitwise
// identical to TransBRange followed by the bias add, on the AVX and the
// pure-Go kernel alike. Work fans out over gemmMR-row strips of W, which
// own disjoint output columns. Reused like ConvGemmState: the ParallelFor
// body is a method value created once and Panel is caller-owned.
type FCGemmState struct {
	W       []float32 // (N x K) row-major weights
	Bias    []float32 // N biases
	X       []float32 // (M x K) input rows
	Out     []float32 // (M x N) output
	Panel   []float32 // caller-owned scratch, >= FCPanelLen(M, K) floats
	M, K, N int

	kern func(lo, hi int)
}

// Run packs X and computes Out.
func (st *FCGemmState) Run() {
	m, k := st.M, st.K
	if len(st.Panel) < FCPanelLen(m, k) {
		panic("tensor: FCGemmState panel too small")
	}
	if st.kern == nil {
		st.kern = st.runStrips
	}
	for s := 0; s*gemmNR < m; s++ {
		dst := st.Panel[s*k*gemmNR:][: k*gemmNR : k*gemmNR]
		for j := 0; j < gemmNR; j++ {
			if r := s*gemmNR + j; r < m {
				for kk, v := range st.X[r*k:][:k] {
					dst[kk*gemmNR+j] = v
				}
				continue
			}
			for kk := 0; kk < k; kk++ {
				dst[kk*gemmNR+j] = 0
			}
		}
	}
	ParallelFor((st.N+gemmMR-1)/gemmMR, st.kern)
}

// runStrips is the ParallelFor body: weight strips [lo, hi), each against
// every sliver of the panel.
func (st *FCGemmState) runStrips(lo, hi int) {
	m, k, n := st.M, st.K, st.N
	for s := lo; s < hi; s++ {
		i0 := s * gemmMR
		for r0 := 0; r0 < m; r0 += gemmNR {
			w := min(gemmNR, m-r0)
			bp := st.Panel[r0*k:][: k*gemmNR : k*gemmNR]
			if i0+gemmMR <= n {
				var acc [gemmMR][gemmNR]float32
				kern4x8(st.W[i0*k:][:k], st.W[(i0+1)*k:][:k], st.W[(i0+2)*k:][:k], st.W[(i0+3)*k:][:k], bp, &acc)
				for r := 0; r < gemmMR; r++ {
					b := st.Bias[i0+r]
					for j := 0; j < w; j++ {
						st.Out[(r0+j)*n+i0+r] = acc[r][j] + b
					}
				}
				continue
			}
			for i := i0; i < n; i++ {
				var acc [gemmNR]float32
				kern1x8(st.W[i*k:][:k], bp, &acc)
				b := st.Bias[i]
				for j := 0; j < w; j++ {
					st.Out[(r0+j)*n+i] = acc[j] + b
				}
			}
		}
	}
}
