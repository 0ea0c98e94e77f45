package nn

import (
	"math"
	"testing"

	"lcrs/internal/tensor"
)

// Parallel Conv2D forward must be bitwise identical to the single-threaded
// result: chunks own disjoint output planes and each element accumulates
// in a fixed order, so no float reassociation can occur.
func TestConv2DParallelForwardBitwiseDeterministic(t *testing.T) {
	shapes := []struct {
		n, inC, outC, h, w, k, stride, pad int
	}{
		{1, 1, 4, 9, 9, 3, 1, 1},
		{2, 3, 8, 16, 16, 3, 1, 1},
		{3, 4, 5, 11, 13, 5, 2, 2},
		{4, 2, 16, 8, 8, 1, 1, 0},
	}
	for _, sh := range shapes {
		g := tensor.NewRNG(int64(sh.outC)*100 + int64(sh.h))
		c := NewConv2D("c", g, sh.inC, sh.outC, sh.k, sh.k, sh.stride, sh.pad)
		x := g.Uniform(-2, 2, sh.n, sh.inC, sh.h, sh.w)

		prev := tensor.SetMaxWorkers(1)
		serial := c.Forward(x, false)
		tensor.SetMaxWorkers(8) // force chunked execution even on 1 CPU
		parallel := c.Forward(x, false)
		tensor.SetMaxWorkers(prev)

		if !serial.SameShape(parallel) {
			t.Fatalf("%+v: shape %v vs %v", sh, serial.Shape, parallel.Shape)
		}
		for i := range serial.Data {
			if math.Float32bits(serial.Data[i]) != math.Float32bits(parallel.Data[i]) {
				t.Fatalf("%+v: element %d differs bitwise: %x vs %x",
					sh, i, math.Float32bits(serial.Data[i]), math.Float32bits(parallel.Data[i]))
			}
		}
	}
}

// Eval-mode forwards on a CloneForInference copy must agree bitwise with
// the original and with the layer's training forward (the legacy
// materialized-cols kernel), and neither grows a cols matrix.
func TestConv2DCloneForInferenceSharesParams(t *testing.T) {
	g := tensor.NewRNG(5)
	c := NewConv2D("c", g, 3, 6, 3, 3, 1, 1)
	clone, ok := CloneForInference(c).(*Conv2D)
	if !ok {
		t.Fatal("clone of *Conv2D must be *Conv2D")
	}
	if clone.Weight != c.Weight || clone.Bias != c.Bias {
		t.Fatal("clone must share parameter pointers")
	}
	x := g.Uniform(-1, 1, 2, 3, 10, 10)
	want := c.Forward(x, false)
	got := clone.Forward(x, false)
	for i := range want.Data {
		if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
			t.Fatalf("clone forward differs at %d", i)
		}
	}
	// The fused eval path never materializes the cols matrix.
	if len(clone.lastCols) != 0 || len(c.lastCols) != 0 {
		t.Fatalf("eval forwards must not grow cols (clone %d, orig %d)",
			len(clone.lastCols), len(c.lastCols))
	}
	legacy := c.Forward(x, true)
	for i := range legacy.Data {
		if math.Float32bits(legacy.Data[i]) != math.Float32bits(got.Data[i]) {
			t.Fatalf("clone eval forward differs from the training forward at %d", i)
		}
	}
}

// Cloning a Sequential/Residual tree must keep sharing every parameter
// while giving scratch-bearing layers fresh buffers.
func TestCloneForInferenceTree(t *testing.T) {
	g := tensor.NewRNG(9)
	body := NewSequential("body",
		NewConv2D("c1", g, 4, 4, 3, 3, 1, 1),
		NewBatchNorm("bn", 4),
		NewReLU("r"),
	)
	seq := NewSequential("net",
		NewConv2D("c0", g, 2, 4, 3, 3, 1, 1),
		NewResidual("res", body, nil),
		NewFlatten("f"),
		NewLinear("fc", g, 4*8*8, 3),
	)
	clone := CloneForInference(seq).(*Sequential)

	origParams := seq.Params()
	cloneParams := clone.Params()
	if len(origParams) != len(cloneParams) {
		t.Fatalf("param count %d vs %d", len(origParams), len(cloneParams))
	}
	for i := range origParams {
		if origParams[i] != cloneParams[i] {
			t.Fatalf("param %d (%s) not shared", i, origParams[i].Name)
		}
	}

	x := g.Uniform(-1, 1, 2, 2, 8, 8)
	want := seq.Forward(x, false)
	got := clone.Forward(x, false)
	for i := range want.Data {
		if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
			t.Fatalf("clone tree forward differs at %d", i)
		}
	}
}
