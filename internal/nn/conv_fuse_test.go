package nn

import (
	"math"
	"testing"

	"lcrs/internal/tensor"
)

// fuseGeoms are the geometries the fused path is exercised at: stride,
// padding, non-square inputs, 1x1 kernels, and position counts around the
// convNC tile boundary.
var fuseGeoms = []struct {
	n, inC, outC, h, w, k, stride, pad int
}{
	{1, 1, 4, 9, 9, 3, 1, 1},
	{2, 3, 8, 16, 16, 3, 1, 1},
	{3, 4, 5, 11, 13, 5, 2, 2},
	{4, 2, 16, 8, 8, 1, 1, 0},
	{1, 3, 6, 27, 27, 3, 1, 0}, // 625 positions: several position tiles
	{2, 8, 3, 7, 7, 3, 1, 1},   // OutC not a multiple of the strip height
}

// The fused eval convolution must be bitwise identical to the legacy
// materialized im2col+GEMM kernel — the layer's own training forward, which
// has no stochastic step — at every geometry and worker count: both
// accumulate each output element as one ascending-k chain plus a single
// bias add.
func TestConv2DFusedMatchesLegacyBitwise(t *testing.T) {
	for _, sh := range fuseGeoms {
		g := tensor.NewRNG(int64(sh.outC)*31 + int64(sh.h))
		c := NewConv2D("c", g, sh.inC, sh.outC, sh.k, sh.k, sh.stride, sh.pad)
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
					t.Fatalf("%+v workers=%d: element %d differs bitwise: %x vs %x",
						sh, workers, i,
						math.Float32bits(legacy.Data[i]), math.Float32bits(fused.Data[i]))
				}
			}
		}
	}
}

// Arena-backed fused forwards must agree bitwise with heap-backed ones:
// the arena only changes where outputs live, never what is computed.
func TestConv2DFusedArenaMatchesHeap(t *testing.T) {
	g := tensor.NewRNG(17)
	c := NewConv2D("c", g, 3, 8, 3, 3, 1, 1)
	x := g.Uniform(-1, 1, 2, 3, 14, 14)

	heap := c.Forward(x, false)

	clone := CloneForInference(c).(*Conv2D)
	a := tensor.NewArena()
	clone.SetArena(a)
	for round := 0; round < 3; round++ {
		a.Reset()
		got := clone.Forward(x, false)
		for i := range heap.Data {
			if math.Float32bits(heap.Data[i]) != math.Float32bits(got.Data[i]) {
				t.Fatalf("round %d: element %d differs bitwise", round, i)
			}
		}
	}
}

// Training-path cols buffers must never be shared across CloneForInference
// replicas, and eval forwards on a clone must not disturb the original's
// training cache: Backward on the original reads lastCols after the clone
// has served requests.
func TestConv2DTrainBuffersNotAliasedByClones(t *testing.T) {
	g := tensor.NewRNG(23)
	c := NewConv2D("c", g, 3, 6, 3, 3, 1, 1)
	x := g.Uniform(-1, 1, 2, 3, 10, 10)

	// Training forward populates lastCols on the original.
	c.Forward(x, true)
	if len(c.lastCols) == 0 {
		t.Fatal("training forward must populate lastCols")
	}
	snapshot := append([]float32(nil), c.lastCols...)

	// Serve eval traffic from a clone; it may not touch the original's
	// training cache, and never grows one of its own.
	clone := CloneForInference(c).(*Conv2D)
	clone.Forward(x, false)
	if len(clone.lastCols) != 0 {
		t.Fatal("eval forwards must not populate the clone's training cache")
	}
	// A training forward on the clone grows its own cache.
	clone.Forward(x, true)
	if &clone.lastCols[0] == &c.lastCols[0] {
		t.Fatal("clone training cache must not alias the original's")
	}
	for i, v := range snapshot {
		if math.Float32bits(v) != math.Float32bits(c.lastCols[i]) {
			t.Fatalf("clone forward corrupted original lastCols at %d", i)
		}
	}

	// The original's Backward still works off the intact cache.
	dout := g.Uniform(-1, 1, 2, 6, 10, 10)
	c.Backward(dout)
}
