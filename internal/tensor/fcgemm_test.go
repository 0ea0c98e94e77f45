package tensor

import (
	"math"
	"testing"
)

// The batched FC GEMM is bitwise TransBRange plus one bias add: every
// output is the same ascending-k chain from zero, whichever microkernel
// runs it and however many workers split the weight strips. The shapes
// cover partial slivers (m not a multiple of 8), more than one sliver,
// remainder weight rows (n not a multiple of 4) and AlexNet's fc6/fc7
// depths.
func TestFCGemmStateMatchesTransBRange(t *testing.T) {
	ms := []int{2, 3, 7, 8, 9, 17}
	ks := []int{1, 7, 9, 300, 4096}
	ns := []int{1, 3, 5, 13, 3000}
	g := NewRNG(41)
	// One weight buffer serves every (n, k): its first n*k floats are an
	// n x k matrix.
	wAll := g.Uniform(-1, 1, ns[len(ns)-1]*ks[len(ks)-1])
	xAll := g.Uniform(-1, 1, ms[len(ms)-1]*ks[len(ks)-1])
	bAll := g.Uniform(-1, 1, ns[len(ns)-1])
	for _, m := range ms {
		for _, k := range ks {
			for _, n := range ns {
				x := FromSlice(xAll.Data[:m*k], m, k)
				w := FromSlice(wAll.Data[:n*k], n, k)
				want := New(m, n)
				TransBRange(want, x, w, 0, n)
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						want.Data[i*n+j] += bAll.Data[j]
					}
				}
				st := &FCGemmState{
					W: w.Data, Bias: bAll.Data[:n], X: x.Data,
					Out: make([]float32, m*n), M: m, K: k, N: n,
				}
				// Stale arena garbage: Run must rewrite every
				// output and every panel lane, padding included.
				st.Panel = make([]float32, FCPanelLen(m, k))
				for i := range st.Panel {
					st.Panel[i] = float32(math.NaN())
				}
				forEachKernel(func(kern string) {
					for _, workers := range []int{1, 2, 3} {
						for i := range st.Out {
							st.Out[i] = -999
						}
						prev := SetMaxWorkers(workers)
						st.Run()
						SetMaxWorkers(prev)
						for i, v := range st.Panel {
							if v != v {
								t.Fatalf("m=%d k=%d n=%d: panel lane %d not rewritten", m, k, n, i)
							}
						}
						for i := range st.Out {
							if math.Float32bits(st.Out[i]) != math.Float32bits(want.Data[i]) {
								t.Fatalf("m=%d k=%d n=%d %s workers=%d: element %d = %g, TransBRange+bias %g",
									m, k, n, kern, workers, i, st.Out[i], want.Data[i])
							}
						}
					}
				})
			}
		}
	}
}
