package tensor

import (
	"fmt"
	"testing"
)

// gemmBenchShapes are the GEMM shapes the rest-of-AlexNet path feeds
// MatMulInto (DESIGN.md §3 architecture, 32x32 inputs): the forward conv
// GEMMs (OutC x K) x (K x P) for conv2..conv5, the conv2 weight-gradient
// GEMM, and a 32-sample fc7 input-gradient GEMM. The two largest shapes —
// conv2 forward and fc7 dX — are the acceptance gates for the blocked
// kernel (EXPERIMENTS.md "Kernel benchmarks").
var gemmBenchShapes = []struct {
	tag     string
	m, k, n int
}{
	{"conv2-fwd", 192, 576, 256}, // conv2 forward: (OutC x K) x (K x P)
	{"conv3-fwd", 384, 1728, 64}, // conv3 forward at 8x8 spatial
	{"conv4-fwd", 256, 3456, 64}, // conv4 forward
	{"conv5-fwd", 256, 2304, 64}, // conv5 forward
	{"conv2-dW", 192, 256, 576},  // conv2 dW: (OutC x P) x (P x K)
	{"conv5-dW", 256, 16, 2304},  // conv5 dW at 4x4 spatial
	{"fc7-dX", 32, 3000, 3000},   // fc7 dX: (N x Out) x (Out x In)
}

// BenchmarkMatMulInto compares the dispatching kernel against the pinned
// unrolled and blocked implementations at every rest-of-AlexNet shape. The
// CI bench smoke runs this with -benchtime=1x so kernel regressions
// surface in the pipeline; throughput is reported as GB/s over m*k*n*4
// bytes (the MAC count in float bytes), the repo's historical GEMM metric.
func BenchmarkMatMulInto(b *testing.B) {
	impls := []struct {
		name string
		fn   func(dst, a, b *Tensor)
	}{
		{"dispatch", MatMulInto},
		{"unrolled", MatMulUnrolledInto},
		{"blocked", MatMulBlockedInto},
	}
	for _, s := range gemmBenchShapes {
		for _, impl := range impls {
			b.Run(fmt.Sprintf("%s-%dx%dx%d/%s", s.tag, s.m, s.k, s.n, impl.name), func(b *testing.B) {
				g := NewRNG(1)
				a := g.Uniform(-1, 1, s.m, s.k)
				bb := g.Uniform(-1, 1, s.k, s.n)
				dst := New(s.m, s.n)
				b.SetBytes(int64(s.m) * int64(s.k) * int64(s.n) * 4)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					impl.fn(dst, a, bb)
				}
			})
		}
	}
}
