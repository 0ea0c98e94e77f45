package tensor

import (
	"fmt"
	"math"
	"testing"
)

// matMulBlockedRef is a plain scalar implementation of the blocked kernel's
// accumulation order: for each KC block in ascending order, one ascending-k
// chain into a local register, then one += into C. The production kernel
// must match it bitwise — this is the cross-impl equivalence rail the
// tiling optimizations are pinned against.
func matMulBlockedRef(dst, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var c float32
			for kc := 0; kc < k; kc += gemmKC {
				kcLen := min(gemmKC, k-kc)
				var acc float32
				for kk := 0; kk < kcLen; kk++ {
					acc += a.Data[i*k+kc+kk] * b.Data[(kc+kk)*n+j]
				}
				c += acc
			}
			dst.Data[i*n+j] = c
		}
	}
}

// transBRef is the historical serial MatMulTransB loop, kept verbatim as
// the bitwise reference for the register-tiled TransBRange.
func transBRef(a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	c := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			var s float32
			for kk, av := range arow {
				s += av * brow[kk]
			}
			crow[j] = s
		}
	}
	return c
}

var gemmShapes = []struct{ m, k, n int }{
	{4, 4, 4},
	{5, 3, 7},       // remainder rows and a ragged sliver
	{1, 129, 1},     // single row/column, k just past a 4-multiple
	{7, 300, 9},     // k spans two KC blocks
	{64, 576, 256},  // conv2-like
	{192, 256, 576}, // conv2 dW
	{33, 700, 301},  // everything ragged across block boundaries
	{8, 16, 260},    // n spans two NC blocks
}

func TestMatMulBlockedMatchesReference(t *testing.T) {
	for _, s := range gemmShapes {
		g := NewRNG(int64(s.m*s.k + s.n))
		a := g.Uniform(-1, 1, s.m, s.k)
		b := g.Uniform(-1, 1, s.k, s.n)
		got := New(s.m, s.n)
		want := New(s.m, s.n)
		matMulBlockedInto(got, a, b)
		matMulBlockedRef(want, a, b)
		for i := range got.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%dx%dx%d: blocked kernel diverges from scalar reference at %d: %g vs %g",
					s.m, s.k, s.n, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatMulBlockedSerialParallelBitwise(t *testing.T) {
	for _, s := range gemmShapes {
		g := NewRNG(int64(s.m + s.k + s.n))
		a := g.Uniform(-1, 1, s.m, s.k)
		b := g.Uniform(-1, 1, s.k, s.n)
		serial := New(s.m, s.n)
		parallel := New(s.m, s.n)

		prev := SetMaxWorkers(1)
		matMulBlockedInto(serial, a, b)
		SetMaxWorkers(8)
		matMulBlockedInto(parallel, a, b)
		SetMaxWorkers(prev)

		for i := range serial.Data {
			if math.Float32bits(serial.Data[i]) != math.Float32bits(parallel.Data[i]) {
				t.Fatalf("%dx%dx%d: parallel blocked GEMM diverges from serial at %d", s.m, s.k, s.n, i)
			}
		}
	}
}

// TestMatMulIntoDispatchAgreement checks both sides of the size dispatch:
// small problems must stay bitwise identical to the unrolled kernel (they
// run it), and large problems — which re-associate across KC blocks — must
// agree with the unrolled kernel within accumulation tolerance.
func TestMatMulIntoDispatchAgreement(t *testing.T) {
	small := struct{ m, k, n int }{8, 16, 32} // k*n below blockedMinWork
	g := NewRNG(7)
	a := g.Uniform(-1, 1, small.m, small.k)
	b := g.Uniform(-1, 1, small.k, small.n)
	got := New(small.m, small.n)
	want := New(small.m, small.n)
	MatMulInto(got, a, b)
	MatMulUnrolledInto(want, a, b)
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("small-problem dispatch must be bitwise-unrolled; element %d differs", i)
		}
	}

	big := struct{ m, k, n int }{64, 576, 256}
	a = g.Uniform(-1, 1, big.m, big.k)
	b = g.Uniform(-1, 1, big.k, big.n)
	got = New(big.m, big.n)
	want = New(big.m, big.n)
	MatMulInto(got, a, b)
	MatMulUnrolledInto(want, a, b)
	for i := range got.Data {
		d := float64(got.Data[i] - want.Data[i])
		if math.Abs(d) > 1e-3 {
			t.Fatalf("blocked/unrolled disagree beyond tolerance at %d: %g vs %g", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulTransBIntoBitwise(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 64, 10}, {1, 300, 301}, {3, 17, 5}, {32, 128, 64}, {6, 9, 4},
	}
	for _, s := range shapes {
		g := NewRNG(int64(s.m*31 + s.n))
		a := g.Uniform(-1, 1, s.m, s.k)
		b := g.Uniform(-1, 1, s.n, s.k)
		want := transBRef(a, b)

		for _, workers := range []int{1, 8} {
			prev := SetMaxWorkers(workers)
			got := New(s.m, s.n)
			MatMulTransBInto(got, a, b)
			SetMaxWorkers(prev)
			for i := range got.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%dx%dx%d workers=%d: TransB diverges from reference at %d",
						s.m, s.k, s.n, workers, i)
				}
			}
		}

		// Ragged chunk boundaries must not change values either.
		got := New(s.m, s.n)
		for j := 0; j < s.n; {
			hi := min(j+3, s.n)
			TransBRange(got, a, b, j, hi)
			j = hi
		}
		for i := range got.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%dx%dx%d: ragged TransBRange chunking changed element %d", s.m, s.k, s.n, i)
			}
		}
	}
}

func TestMatMulStillCorrect(t *testing.T) {
	// End-to-end sanity against a float64 reference at a dispatching size.
	m, k, n := 48, 400, 96
	g := NewRNG(11)
	a := g.Uniform(-1, 1, m, k)
	b := g.Uniform(-1, 1, k, n)
	got := MatMul(a, b)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				s += float64(a.Data[i*k+kk]) * float64(b.Data[kk*n+j])
			}
			if math.Abs(s-float64(got.Data[i*n+j])) > 1e-3 {
				t.Fatalf("(%d,%d): got %g want %g", i, j, got.Data[i*n+j], s)
			}
		}
	}
}

func TestConvGemmStateMatchesIm2ColGemm(t *testing.T) {
	geoms := []ConvGeom{
		{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 2, InH: 9, InW: 7, KH: 5, KW: 5, Stride: 2, Pad: 2},
		{InC: 4, InH: 5, InW: 5, KH: 1, KW: 1, Stride: 1, Pad: 0},
		{InC: 1, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 3, Pad: 2},
	}
	for gi, geom := range geoms {
		k := geom.InC * geom.KH * geom.KW
		p := geom.OutH() * geom.OutW()
		outC := 10
		g := NewRNG(int64(100 + gi))
		img := g.Uniform(-1, 1, geom.InC, geom.InH, geom.InW)
		w := g.Uniform(-1, 1, outC, k)
		bias := g.Uniform(-1, 1, outC)

		// Reference: materialized im2col, per-element ascending-k dot + bias,
		// exactly the legacy conv kernel's order.
		cols := make([]float32, p*k)
		geom.Im2Col(cols, img.Data)
		want := make([]float32, outC*p)
		for o := 0; o < outC; o++ {
			wrow := w.Data[o*k : (o+1)*k]
			for pos := 0; pos < p; pos++ {
				crow := cols[pos*k : (pos+1)*k]
				var s float32
				for j, wv := range wrow {
					s += wv * crow[j]
				}
				want[o*p+pos] = s + bias.Data[o]
			}
		}

		st := &ConvGemmState{
			G: geom, OutC: outC, W: w.Data, Bias: bias.Data,
			Panel: make([]float32, ConvPanelLen(k, p)),
			Img:   img.Data, Out: make([]float32, outC*p),
		}
		for _, workers := range []int{1, 8} {
			prev := SetMaxWorkers(workers)
			for i := range st.Out {
				st.Out[i] = -999 // stale arena garbage: every element must be rewritten
			}
			st.Run()
			SetMaxWorkers(prev)
			for i := range st.Out {
				if math.Float32bits(st.Out[i]) != math.Float32bits(want[i]) {
					t.Fatalf("geom %d workers=%d: fused conv diverges from legacy at %d: %g vs %g",
						gi, workers, i, st.Out[i], want[i])
				}
			}
		}
	}
}

func BenchmarkMatMulTransBInto(b *testing.B) {
	shapes := []struct{ m, k, n int }{
		{1, 4096, 3000}, // fc6 single-sample serving
		{1, 3000, 3000}, // fc7 single-sample serving
	}
	for _, s := range shapes {
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			g := NewRNG(1)
			a := g.Uniform(-1, 1, s.m, s.k)
			bb := g.Uniform(-1, 1, s.n, s.k)
			dst := New(s.m, s.n)
			b.SetBytes(int64(s.m) * int64(s.k) * int64(s.n) * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulTransBInto(dst, a, bb)
			}
		})
	}
}

// matMulBlockedInto computes dst = a x b with the cache-blocked kernel
// unconditionally (MatMulInto dispatches to it above blockedMinWork), for
// the benchmarks and the cross-implementation equivalence tests. dst must
// not alias a or b.
func matMulBlockedInto(dst, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if b.Shape[0] != k || dst.Shape[0] != m || dst.Shape[1] != n {
		panic("tensor: matMulBlockedInto shape mismatch")
	}
	bufp := gemmPanelPool.Get().(*[]float32)
	matMulBlocked(dst.Data, a.Data, b.Data, m, k, n, *bufp)
	gemmPanelPool.Put(bufp)
}
