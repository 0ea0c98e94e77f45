package binary

import (
	"math"
	"testing"

	"lcrs/internal/tensor"
)

// The fused eval binary convolution (panel-packed ±K_p sign matrix) must be
// bitwise identical to the legacy materialized-cols MatMulTransB kernel —
// the layer's own training forward, which has no stochastic step.
func TestBinaryConv2DFusedMatchesLegacyBitwise(t *testing.T) {
	shapes := []struct {
		n, inC, outC, h, w, k, stride, pad int
	}{
		{1, 1, 4, 9, 9, 3, 1, 1},
		{2, 3, 8, 16, 16, 3, 1, 1},
		{3, 4, 5, 11, 13, 5, 2, 2},
		{1, 3, 6, 27, 27, 3, 1, 0}, // several position tiles
	}
	for _, sh := range shapes {
		g := tensor.NewRNG(int64(sh.outC)*13 + int64(sh.w))
		c := NewConv2D("bc", g, sh.inC, sh.outC, sh.k, sh.k, sh.stride, sh.pad)
		x := g.Uniform(-2, 2, sh.n, sh.inC, sh.h, sh.w)

		legacy := c.Forward(x, true)
		for _, workers := range []int{1, 8} {
			prevW := tensor.SetMaxWorkers(workers)
			fused := c.Forward(x, false)
			tensor.SetMaxWorkers(prevW)
			if !legacy.SameShape(fused) {
				t.Fatalf("%+v: shape %v vs %v", sh, legacy.Shape, fused.Shape)
			}
			for i := range legacy.Data {
				if math.Float32bits(legacy.Data[i]) != math.Float32bits(fused.Data[i]) {
					t.Fatalf("%+v workers=%d: element %d differs bitwise", sh, workers, i)
				}
			}
		}
		// The eval path must not materialize the cols matrices.
		clone := c.CloneForInference().(*Conv2D)
		clone.Forward(x, false)
		if len(clone.lastRaw) != 0 || len(clone.lastCols) != 0 {
			t.Fatalf("%+v: eval forward materialized cols (raw %d, cols %d)",
				sh, len(clone.lastRaw), len(clone.lastCols))
		}
	}
}

// InputScalesInto must reproduce InputScales exactly while reusing caller
// storage across calls with stale contents.
func TestInputScalesIntoMatches(t *testing.T) {
	g := tensor.ConvGeom{InC: 3, InH: 11, InW: 13, KH: 3, KW: 3, Stride: 2, Pad: 1}
	rng := tensor.NewRNG(7)
	img := rng.Uniform(-2, 2, 3, 11, 13).Data

	want := InputScales(g, img)
	dst := make([]float32, g.OutH()*g.OutW())
	aplane := make([]float32, g.InH*g.InW)
	for i := range dst {
		dst[i] = 999 // stale garbage must be overwritten
	}
	for i := range aplane {
		aplane[i] = -999
	}
	InputScalesInto(dst, aplane, g, img)
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(dst[i]) {
			t.Fatalf("scale %d differs: %v vs %v", i, want[i], dst[i])
		}
	}
}
