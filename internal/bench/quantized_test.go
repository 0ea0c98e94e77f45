package bench

import (
	"math"
	"testing"
	"testing/quick"

	"lcrs/internal/nn"
	"lcrs/internal/tensor"
)

func TestEstimateWeightsOneBitMatchesBinaryScheme(t *testing.T) {
	w := tensor.FromSlice([]float32{2, -4, 0, -2}, 1, 4)
	dst := tensor.New(1, 4)
	scales := estimateWeights(dst, w, 1)
	if scales[0] != 2 {
		t.Fatalf("alpha = %v, want 2 (mean abs)", scales[0])
	}
	want := []float32{2, -2, 2, -2}
	for i, v := range want {
		if dst.Data[i] != v {
			t.Fatalf("dst[%d] = %v, want %v", i, dst.Data[i], v)
		}
	}
}

func TestEstimateWeightsHighBitsNearExact(t *testing.T) {
	g := tensor.NewRNG(1)
	w := g.Normal(0, 1, 4, 64)
	dst := tensor.New(4, 64)
	estimateWeights(dst, w, 8)
	var maxErr float64
	for i := range w.Data {
		if e := math.Abs(float64(w.Data[i] - dst.Data[i])); e > maxErr {
			maxErr = e
		}
	}
	// 127 levels over max|w| ~ 3.5 sigma: error below one grid step.
	if maxErr > 0.03 {
		t.Fatalf("8-bit quantization error %v too large", maxErr)
	}
}

// Property: within the max-scaled grid scheme (k >= 2), reconstruction
// error is non-increasing in bit width, and 8 bits always beats the 1-bit
// sign scheme. (1-bit vs 2-bit is not ordered: they use different optimal
// scalings — mean-abs vs max-scaled — and either can win.)
func TestErrorMonotoneInBitsQuick(t *testing.T) {
	sqErr := func(w *tensor.Tensor, k int) float64 {
		dst := tensor.New(w.Shape...)
		estimateWeights(dst, w, k)
		var err float64
		for i := range w.Data {
			d := float64(w.Data[i] - dst.Data[i])
			err += d * d
		}
		return err
	}
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		w := g.Normal(0, 1, 2, 32)
		prev := math.Inf(1)
		for _, k := range []int{2, 4, 8} {
			err := sqErr(w, k)
			if err > prev+1e-6 {
				return false
			}
			prev = err
		}
		return sqErr(w, 8) <= sqErr(w, 1)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateWeightsZeroFilter(t *testing.T) {
	w := tensor.New(1, 8)
	dst := tensor.Ones(1, 8)
	scales := estimateWeights(dst, w, 4)
	if scales[0] != 0 {
		t.Fatalf("zero filter scale = %v", scales[0])
	}
	for _, v := range dst.Data {
		if v != 0 {
			t.Fatal("zero filter must quantize to zeros")
		}
	}
}

func TestEstimateWeightsRejectsBadBits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bits=0 did not panic")
		}
	}()
	estimateWeights(tensor.New(1, 2), tensor.New(1, 2), 0)
}

func TestSizeBytesScalesWithBits(t *testing.T) {
	g := tensor.NewRNG(2)
	w := g.Normal(0, 1, 16, 64) // 1024 weights
	if got := quantSizeBytes(w, 1); got != 1024/8+16*4 {
		t.Fatalf("1-bit size = %d", got)
	}
	if got := quantSizeBytes(w, 4); got != 1024/2+16*4 {
		t.Fatalf("4-bit size = %d", got)
	}
	if quantSizeBytes(w, 8) >= int64(w.Len())*4 {
		t.Fatal("8-bit must still beat float32")
	}
}

func TestQuantConvForwardApproachesFloatConvWithBits(t *testing.T) {
	g := tensor.NewRNG(3)
	ref := nn.NewConv2D("ref", tensor.NewRNG(3), 2, 4, 3, 3, 1, 1)
	x := g.Uniform(-1, 1, 2, 2, 8, 8)
	want := ref.Forward(x, false)

	var prevErr float64 = math.Inf(1)
	for _, bits := range []int{1, 4, 8} {
		qc := newQuantConv2D("qc", tensor.NewRNG(3), bits, 2, 4, 3, 3, 1, 1)
		got := qc.Forward(x, false)
		var err float64
		for i := range want.Data {
			d := float64(want.Data[i] - got.Data[i])
			err += d * d
		}
		if err > prevErr+1e-6 {
			t.Fatalf("conv output error grew from %v to %v at %d bits", prevErr, err, bits)
		}
		prevErr = err
	}
	if prevErr > 0.1 {
		t.Fatalf("8-bit conv should track the float conv closely, err=%v", prevErr)
	}
}

func TestQuantizedLayersTrain(t *testing.T) {
	g := tensor.NewRNG(4)
	lin := newQuantLinear("ql", g, 2, 16, 2)
	head := nn.NewLinear("head", g, 2, 2)
	params := append(lin.Params(), head.Params()...)
	opt := nn.NewAdam(params, 0.01)

	n := 64
	x := tensor.New(n, 16)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		labels[i] = cls
		row := x.Row(i)
		for j := range row {
			v := g.Float32()*0.4 - 0.5
			if (cls == 0 && j < 8) || (cls == 1 && j >= 8) {
				v = g.Float32()*0.4 + 0.1
			}
			row[j] = v
		}
	}
	for epoch := 0; epoch < 60; epoch++ {
		opt.ZeroGrad()
		h := lin.Forward(x, true)
		logits := head.Forward(h, true)
		_, dlogits := nn.SoftmaxCrossEntropy(logits, labels)
		lin.Backward(head.Backward(dlogits))
		opt.Step()
	}
	logits := head.Forward(lin.Forward(x, false), false)
	if acc := nn.Accuracy(logits, labels); acc < 0.9 {
		t.Fatalf("2-bit dense layer failed to train: acc=%v", acc)
	}
}

func TestQuantConvBackwardShapes(t *testing.T) {
	g := tensor.NewRNG(5)
	qc := newQuantConv2D("qc", g, 2, 3, 4, 3, 3, 1, 1)
	x := g.Uniform(-1, 1, 2, 3, 6, 6)
	out := qc.Forward(x, true)
	dx := qc.Backward(tensor.Ones(out.Shape...))
	if !dx.SameShape(x) {
		t.Fatalf("dx shape %v", dx.Shape)
	}
	for _, v := range dx.Data {
		if math.IsNaN(float64(v)) {
			t.Fatal("NaN gradient")
		}
	}
}
