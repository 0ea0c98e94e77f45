package binary

import "lcrs/internal/tensor"

// xnorGEMM is the kernel both packed layers run: for every weight row o of
// W and every packed input row j of X,
//
//	Dst[o*OS + j*JS] = Alpha[o]*Scale[j]*float32(dot) + Bias[o]
//
// with dot = W.N - 2*popcount(W_o XOR X_j), XnorDot's integer. Weight rows
// go in blocks of four (tensor.XorPopcounts4), so every input word loaded
// meets four rows and a block's weights stay in L1 while the inputs stream
// past once per block; the last W.Rows%4 rows call XnorDot itself. A dot
// is an integer, so neither the blocking nor the word order can change it,
// and the epilogue is the per-element expression of a single XnorDot, term
// for term: results are bitwise those of one XnorDot per element.
type xnorGEMM struct {
	W           *PackedMatrix
	Alpha, Bias []float32
	X           []uint64  // len(Scale) rows of W.WordsPerRow words
	Scale       []float32 // one per input row: K_p for a conv, beta for a dense layer
	Dst         []float32
	OS, JS      int // Dst strides of an output row and of an input row
}

// run computes every output, on the calling goroutine.
func (m *xnorGEMM) run() {
	wpr, n, os, js := m.W.WordsPerRow, m.W.N, m.OS, m.JS
	// Counts for up to xnorTile input rows at a time, on the stack.
	var counts [4 * xnorTile]int32
	o := 0
	for ; o+4 <= m.W.Rows; o += 4 {
		w := m.W.Words[o*wpr : (o+4)*wpr]
		for j0 := 0; j0 < len(m.Scale); j0 += xnorTile {
			j1 := min(j0+xnorTile, len(m.Scale))
			tensor.XorPopcounts4(counts[:4*(j1-j0)], w, m.X[j0*wpr:j1*wpr], wpr)
			for r := 0; r < 4; r++ {
				a, b := m.Alpha[o+r], m.Bias[o+r]
				d, k := m.Dst[(o+r)*os+j0*js:], 0
				for j, sc := range m.Scale[j0:j1] {
					d[k] = float32(a*sc*float32(n-2*int(counts[4*j+r]))) + b
					k += js
				}
			}
		}
	}
	for ; o < m.W.Rows; o++ {
		w := m.W.Words[o*wpr : (o+1)*wpr]
		a, b := m.Alpha[o], m.Bias[o]
		for j, sc := range m.Scale {
			m.Dst[o*os+j*js] = float32(a*sc*float32(XnorDot(w, m.X[j*wpr:(j+1)*wpr], n))) + b
		}
	}
}

// xnorTile is how many input rows one tensor.XorPopcounts4 call covers.
const xnorTile = 64
