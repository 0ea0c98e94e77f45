package binary

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"lcrs/internal/nn"
	"lcrs/internal/tensor"
)

func TestFilterAlphas(t *testing.T) {
	// Two filters of 4 elements each.
	w := tensor.FromSlice([]float32{1, -1, 2, -2, 0.5, 0.5, -0.5, 0.5}, 2, 4)
	a := FilterAlphas(w)
	if a[0] != 1.5 || a[1] != 0.5 {
		t.Fatalf("alphas = %v, want [1.5 0.5]", a)
	}
}

func TestEstimateWeights(t *testing.T) {
	w := tensor.FromSlice([]float32{2, -4, 0, -2}, 1, 4)
	dst := tensor.New(1, 4)
	a := EstimateWeights(dst, w)
	if a[0] != 2 {
		t.Fatalf("alpha = %v, want 2", a[0])
	}
	want := []float32{2, -2, 2, -2} // sign(0) = +1
	for i, v := range want {
		if dst.Data[i] != v {
			t.Fatalf("estimate[%d] = %v, want %v", i, dst.Data[i], v)
		}
	}
}

func TestWeightGradThroughFormula(t *testing.T) {
	// One filter of 2 elements: W = [0.5, 2], alpha = 1.25.
	w := tensor.FromSlice([]float32{0.5, 2}, 1, 2)
	alphas := FilterAlphas(w)
	dEst := tensor.FromSlice([]float32{1, 1}, 1, 2)
	grad := tensor.New(1, 2)
	WeightGradThrough(grad, dEst, w, alphas)
	// element 0: |0.5|<=1 so factor = 1/2 + 1.25 = 1.75
	// element 1: |2|>1 so factor = 1/2 = 0.5
	if math.Abs(float64(grad.Data[0])-1.75) > 1e-6 {
		t.Fatalf("grad[0] = %v, want 1.75", grad.Data[0])
	}
	if math.Abs(float64(grad.Data[1])-0.5) > 1e-6 {
		t.Fatalf("grad[1] = %v, want 0.5", grad.Data[1])
	}
}

func TestInputScalesUniformInput(t *testing.T) {
	// |I| constant 2 everywhere: every K entry fully inside the image must
	// be 2; padded positions see zeros averaged in.
	g := tensor.ConvGeom{InC: 3, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	img := make([]float32, 3*16)
	for i := range img {
		if i%2 == 0 {
			img[i] = 2
		} else {
			img[i] = -2
		}
	}
	k := InputScales(g, img)
	if len(k) != 16 {
		t.Fatalf("len(K) = %d, want 16", len(k))
	}
	// Center position (1,1) covers the full 3x3 window: mean |I| = 2.
	center := k[1*4+1]
	if math.Abs(float64(center)-2) > 1e-5 {
		t.Fatalf("center K = %v, want 2", center)
	}
	// Corner (0,0) covers only 4 of 9 window cells: 2*4/9.
	corner := k[0]
	if math.Abs(float64(corner)-8.0/9) > 1e-5 {
		t.Fatalf("corner K = %v, want %v", corner, 8.0/9)
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

func TestRowScale(t *testing.T) {
	if b := RowScale([]float32{1, -2, 3, -4}); b != 2.5 {
		t.Fatalf("RowScale = %v, want 2.5", b)
	}
}

func TestPackSignsAndXnorDotKnown(t *testing.T) {
	a := []float32{1, -1, 1, 1}
	b := []float32{1, 1, -1, 1}
	pa := make([]uint64, 1)
	pb := make([]uint64, 1)
	PackSigns(pa, a)
	PackSigns(pb, b)
	// signs: a=[+,-,+,+], b=[+,+,-,+]; dot = 1-1-1+1 = 0.
	if dot := XnorDot(pa, pb, 4); dot != 0 {
		t.Fatalf("XnorDot = %d, want 0", dot)
	}
	if dot := XnorDot(pa, pa, 4); dot != 4 {
		t.Fatalf("self XnorDot = %d, want 4", dot)
	}
}

// Property: XnorDot equals the float dot product of the sign vectors for
// arbitrary lengths, including multi-word and non-multiple-of-64 lengths.
func TestXnorDotMatchesFloatDotQuick(t *testing.T) {
	g := tensor.NewRNG(1)
	f := func(seed int64, rawLen uint16) bool {
		n := int(rawLen%300) + 1
		rng := tensor.NewRNG(seed)
		a := rng.Uniform(-1, 1, n)
		b := rng.Uniform(-1, 1, n)
		var want int32
		for i := 0; i < n; i++ {
			sa := int32(1)
			if a.Data[i] < 0 {
				sa = -1
			}
			sb := int32(1)
			if b.Data[i] < 0 {
				sb = -1
			}
			want += sa * sb
		}
		pa := make([]uint64, wordsFor(n))
		pb := make([]uint64, wordsFor(n))
		PackSigns(pa, a.Data)
		PackSigns(pb, b.Data)
		return XnorDot(pa, pb, n) == want
	}
	cfg := &quick.Config{MaxCount: 200, Rand: nil}
	_ = g
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPackedMatrixSizeBytes(t *testing.T) {
	m := NewPackedMatrix(10, 100)
	// 1000 bits = 125 bytes.
	if got := m.SizeBytes(); got != 125 {
		t.Fatalf("SizeBytes = %d, want 125", got)
	}
}

// The packed conv must reproduce the training-time binary conv exactly (both
// compute Eq. 4; one in floats, one in bits).
func TestPackedConvMatchesTrainingForward(t *testing.T) {
	g := tensor.NewRNG(2)
	c := NewConv2D("bc", g, 3, 8, 3, 3, 1, 1)
	x := g.Uniform(-2, 2, 2, 3, 8, 8)
	want := c.Forward(x, false)
	packed := PackConv2D(c)
	got := packed.Forward(x)
	if !tensor.Equal(want, got, 1e-3) {
		t.Fatal("packed conv output differs from training-time binary conv")
	}
}

func TestPackedConvStridedNoPad(t *testing.T) {
	g := tensor.NewRNG(3)
	c := NewConv2D("bc", g, 2, 4, 2, 2, 2, 0)
	x := g.Uniform(-1, 1, 1, 2, 6, 6)
	want := c.Forward(x, false)
	got := PackConv2D(c).Forward(x)
	if !tensor.Equal(want, got, 1e-3) {
		t.Fatal("packed strided conv output differs")
	}
	if got.Dim(2) != 3 || got.Dim(3) != 3 {
		t.Fatalf("output shape = %v, want 3x3 spatial", got.Shape)
	}
}

func TestPackedLinearMatchesTrainingForward(t *testing.T) {
	g := tensor.NewRNG(4)
	l := NewLinear("bl", g, 37, 11) // deliberately not a multiple of 64
	x := g.Uniform(-2, 2, 5, 37)
	want := l.Forward(x, false)
	got := PackLinear(l).Forward(x)
	if !tensor.Equal(want, got, 1e-3) {
		t.Fatal("packed linear output differs from training-time binary linear")
	}
}

func TestPackedSizesAreTiny(t *testing.T) {
	g := tensor.NewRNG(5)
	c := NewConv2D("bc", g, 64, 128, 3, 3, 1, 1)
	floatBytes := int64(c.Weight.Value.Len()) * 4
	packed := PackConv2D(c)
	ratio := float64(floatBytes) / float64(packed.SizeBytes())
	// 1 bit vs 32 bits, minus alpha/bias overhead: should be close to 32x,
	// and certainly above the 16x the paper reports end-to-end.
	if ratio < 25 {
		t.Fatalf("compression ratio = %.1f, want > 25", ratio)
	}
}

// Bias gradients are outside the binarization, so they must match numeric
// differentiation exactly even though weight gradients use the STE.
func TestBinaryConvBiasGradientNumeric(t *testing.T) {
	g := tensor.NewRNG(6)
	c := NewConv2D("bc", g, 1, 2, 3, 3, 1, 1)
	x := g.Uniform(-1, 1, 1, 1, 5, 5)
	proj := g.Uniform(-1, 1, 1, 2, 5, 5)

	loss := func() float64 {
		out := c.Forward(x, false)
		var s float64
		for i, v := range out.Data {
			s += float64(v) * float64(proj.Data[i])
		}
		return s
	}
	c.Bias.EnsureGrad().Zero()
	c.Forward(x, true)
	c.Backward(proj.Clone())

	const h = 1e-2
	for i := range c.Bias.Value.Data {
		orig := c.Bias.Value.Data[i]
		c.Bias.Value.Data[i] = orig + h
		lp := loss()
		c.Bias.Value.Data[i] = orig - h
		lm := loss()
		c.Bias.Value.Data[i] = orig
		numeric := (lp - lm) / (2 * h)
		if math.Abs(numeric-float64(c.Bias.Grad.Data[i])) > 1e-2*math.Max(1, math.Abs(numeric)) {
			t.Fatalf("bias grad[%d]: analytic %v vs numeric %v", i, c.Bias.Grad.Data[i], numeric)
		}
	}
}

func TestBinaryBackwardShapes(t *testing.T) {
	g := tensor.NewRNG(7)
	c := NewConv2D("bc", g, 3, 4, 3, 3, 1, 1)
	x := g.Uniform(-1, 1, 2, 3, 6, 6)
	out := c.Forward(x, true)
	dx := c.Backward(tensor.Ones(out.Shape...))
	if !dx.SameShape(x) {
		t.Fatalf("dx shape %v, want %v", dx.Shape, x.Shape)
	}
	for _, v := range dx.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("non-finite gradient")
		}
	}
	l := NewLinear("bl", g, 10, 4)
	x2 := g.Uniform(-1, 1, 3, 10)
	out2 := l.Forward(x2, true)
	dx2 := l.Backward(tensor.Ones(out2.Shape...))
	if !dx2.SameShape(x2) {
		t.Fatalf("dx2 shape %v, want %v", dx2.Shape, x2.Shape)
	}
}

// A network with a binary dense layer must still be trainable through the
// straight-through estimator: it should learn a linearly separable sign
// problem well above chance.
func TestBinaryLayerTrainsThroughSTE(t *testing.T) {
	g := tensor.NewRNG(8)
	lin := NewLinear("bl", g, 16, 2)
	head := nn.NewLinear("head", g, 2, 2)
	params := append(lin.Params(), head.Params()...)
	opt := nn.NewAdam(params, 0.01)

	// Class 0: first half positive-heavy; class 1: second half.
	n := 64
	x := tensor.New(n, 16)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		labels[i] = cls
		row := x.Row(i)
		for j := range row {
			v := g.Float32()*0.5 - 0.6 // mostly negative
			if (cls == 0 && j < 8) || (cls == 1 && j >= 8) {
				v = g.Float32()*0.5 + 0.1 // mostly positive
			}
			row[j] = v
		}
	}
	for epoch := 0; epoch < 60; epoch++ {
		opt.ZeroGrad()
		h := lin.Forward(x, true)
		logits := head.Forward(h, true)
		_, dlogits := nn.SoftmaxCrossEntropy(logits, labels)
		dh := head.Backward(dlogits)
		lin.Backward(dh)
		opt.Step()
	}
	logits := head.Forward(lin.Forward(x, false), false)
	if acc := nn.Accuracy(logits, labels); acc < 0.9 {
		t.Fatalf("binary layer failed to train through STE: acc = %v", acc)
	}
}

// The training-time binary Conv2D keeps no eval scratch: an inference clone
// shares the layer itself, eval forwards write nothing to it and may run
// concurrently, and each is bitwise its training forward.
func TestBinaryConv2DCloneForInference(t *testing.T) {
	g := tensor.NewRNG(3)
	c := NewConv2D("bc", g, 2, 4, 3, 3, 1, 1)
	if nn.CloneForInference(c) != nn.Layer(c) {
		t.Fatal("inference clone of binary *Conv2D must be the layer itself")
	}
	x := g.Uniform(-1, 1, 2, 2, 9, 9)
	got := make([]*tensor.Tensor, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = c.Forward(x, false)
		}(i)
	}
	wg.Wait()
	if c.lastInput != nil || c.lastRaw != nil || c.lastCols != nil || c.lastK != nil {
		t.Fatal("eval forward wrote the training caches")
	}
	want := c.Forward(x, true)
	for _, out := range got {
		for i := range want.Data {
			if math.Float32bits(want.Data[i]) != math.Float32bits(out.Data[i]) {
				t.Fatalf("eval forward differs from training forward at %d", i)
			}
		}
	}
}
