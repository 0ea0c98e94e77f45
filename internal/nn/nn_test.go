package nn

import (
	"math"
	"testing"

	"lcrs/internal/tensor"
)

func TestAdamConvergesOnQuadratic(t *testing.T) {
	w := NewParam("w", tensor.FromSlice([]float32{5, -3}, 2))
	target := []float32{1, 2}
	opt := NewAdam([]*Param{w}, 0.1)
	for i := 0; i < 500; i++ {
		opt.ZeroGrad()
		for j := range w.Value.Data {
			w.Grad.Data[j] = 2 * (w.Value.Data[j] - target[j])
		}
		opt.Step()
	}
	for j, want := range target {
		if math.Abs(float64(w.Value.Data[j]-want)) > 1e-2 {
			t.Fatalf("w[%d] = %v, want %v", j, w.Value.Data[j], want)
		}
	}
}

func TestStepDecaySchedule(t *testing.T) {
	s := StepDecay{Initial: 1, Factor: 0.1, Every: 10}
	cases := map[int]float64{0: 1, 9: 1, 10: 0.1, 20: 0.01}
	for epoch, want := range cases {
		if got := s.At(epoch); math.Abs(got-want) > 1e-12 {
			t.Errorf("At(%d) = %v, want %v", epoch, got, want)
		}
	}
	flat := StepDecay{Initial: 0.5}
	if flat.At(100) != 0.5 {
		t.Error("schedule without Every must be constant")
	}
}

func TestClipGradients(t *testing.T) {
	p := NewParam("p", tensor.New(2))
	p.EnsureGrad().Data[0] = 3
	p.Grad.Data[1] = 4 // norm 5
	norm := ClipGradients([]*Param{p}, 1)
	if math.Abs(norm-5) > 1e-6 {
		t.Fatalf("pre-clip norm = %v, want 5", norm)
	}
	var ss float64
	for _, g := range p.Grad.Data {
		ss += float64(g) * float64(g)
	}
	if math.Abs(math.Sqrt(ss)-1) > 1e-5 {
		t.Fatalf("post-clip norm = %v, want 1", math.Sqrt(ss))
	}
	// A norm already under the limit must be untouched.
	before := append([]float32(nil), p.Grad.Data...)
	ClipGradients([]*Param{p}, 10)
	for i := range before {
		if p.Grad.Data[i] != before[i] {
			t.Fatal("clip modified gradients under the limit")
		}
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	g := tensor.NewRNG(1)
	d := NewDropout("drop", g, 0.5)
	x := tensor.Ones(1, 1000)

	eval := d.Forward(x, false)
	if !tensor.Equal(eval, x, 0) {
		t.Fatal("dropout must be identity at inference")
	}

	train := d.Forward(x, true)
	zeros, twos := 0, 0
	for _, v := range train.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("inverted dropout with p=0.5 must emit 0 or 2, got %v", v)
		}
	}
	if zeros < 350 || zeros > 650 {
		t.Fatalf("dropout rate off: %d/1000 zeroed", zeros)
	}
	// Backward must use the same mask.
	dx := d.Backward(tensor.Ones(1, 1000))
	for i, v := range train.Data {
		if (v == 0) != (dx.Data[i] == 0) {
			t.Fatal("backward mask differs from forward mask")
		}
	}
}

func TestBatchNormNormalizesTrainBatch(t *testing.T) {
	g := tensor.NewRNG(2)
	bn := NewBatchNorm("bn", 4)
	x := g.Normal(3, 2, 8, 4, 5, 5)
	out := bn.Forward(x, true)
	// Per-channel mean about 0, var about 1 (gamma=1, beta=0 initially).
	perChan := 5 * 5
	for c := 0; c < 4; c++ {
		var s, ss float64
		n := 0
		for b := 0; b < 8; b++ {
			base := (b*4 + c) * perChan
			for i := 0; i < perChan; i++ {
				v := float64(out.Data[base+i])
				s += v
				ss += v * v
				n++
			}
		}
		mean := s / float64(n)
		variance := ss/float64(n) - mean*mean
		if math.Abs(mean) > 1e-3 {
			t.Fatalf("channel %d mean = %v, want about 0", c, mean)
		}
		if math.Abs(variance-1) > 1e-2 {
			t.Fatalf("channel %d var = %v, want about 1", c, variance)
		}
	}
}

func TestBatchNormRunningStatsConverge(t *testing.T) {
	g := tensor.NewRNG(3)
	bn := NewBatchNorm("bn", 2)
	for i := 0; i < 200; i++ {
		x := g.Normal(5, 3, 16, 2)
		bn.Forward(x, true)
	}
	for c := 0; c < 2; c++ {
		if math.Abs(float64(bn.RunningMean.Data[c])-5) > 0.5 {
			t.Fatalf("running mean[%d] = %v, want about 5", c, bn.RunningMean.Data[c])
		}
		if math.Abs(float64(bn.RunningVar.Data[c])-9) > 2 {
			t.Fatalf("running var[%d] = %v, want about 9", c, bn.RunningVar.Data[c])
		}
	}
	// Inference on a standard batch drawn from the same distribution should
	// produce roughly normalized output.
	x := g.Normal(5, 3, 256, 2)
	out := bn.Forward(x, false)
	if m := out.Sum() / float64(out.Len()); math.Abs(m) > 0.2 {
		t.Fatalf("inference mean = %v, want about 0", m)
	}
}

func TestSequentialOutShapeAndFLOPs(t *testing.T) {
	g := tensor.NewRNG(4)
	net := NewSequential("net",
		NewConv2D("c1", g, 3, 16, 3, 3, 1, 1),
		NewReLU("r1"),
		NewMaxPool2D("p1", 2, 2, 0),
		NewFlatten("flat"),
		NewLinear("fc", g, 16*16*16, 10),
	)
	out := net.OutShape([]int{3, 32, 32})
	if len(out) != 1 || out[0] != 10 {
		t.Fatalf("OutShape = %v, want [10]", out)
	}
	if f := net.FLOPs([]int{3, 32, 32}); f <= 0 {
		t.Fatalf("FLOPs = %d, want positive", f)
	}
	// Forward shape must agree with OutShape.
	x := g.Uniform(-1, 1, 2, 3, 32, 32)
	y := net.Forward(x, false)
	if y.Dim(0) != 2 || y.Dim(1) != 10 {
		t.Fatalf("Forward shape = %v", y.Shape)
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		1, 2, 0, // argmax 1
		5, 0, 0, // argmax 0
		0, 0, 9, // argmax 2
	}, 3, 3)
	if acc := Accuracy(logits, []int{1, 0, 2}); acc != 1 {
		t.Fatalf("Accuracy = %v, want 1", acc)
	}
	if acc := Accuracy(logits, []int{0, 0, 2}); math.Abs(acc-2.0/3) > 1e-9 {
		t.Fatalf("Accuracy = %v, want 2/3", acc)
	}
}

func TestSoftmaxCrossEntropyPanicsOnBadLabel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range label did not panic")
		}
	}()
	SoftmaxCrossEntropy(tensor.New(1, 3), []int{5})
}

// End-to-end: a small network must overfit a tiny synthetic problem. This is
// the canonical "does the whole training loop work" smoke test.
func TestTrainingLoopOverfitsTinyProblem(t *testing.T) {
	g := tensor.NewRNG(6)
	net := NewSequential("tiny",
		NewConv2D("c1", g, 1, 4, 3, 3, 1, 1),
		NewReLU("r1"),
		NewMaxPool2D("p1", 2, 2, 0),
		NewFlatten("flat"),
		NewLinear("fc", g, 4*4*4, 3),
	)
	// Three classes: horizontal stripe, vertical stripe, blob.
	n := 30
	x := tensor.New(n, 1, 8, 8)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 3
		labels[i] = cls
		img := x.Batch(i)
		switch cls {
		case 0:
			for j := 0; j < 8; j++ {
				img.Data[3*8+j] = 1
			}
		case 1:
			for j := 0; j < 8; j++ {
				img.Data[j*8+3] = 1
			}
		case 2:
			img.Data[3*8+3] = 1
			img.Data[3*8+4] = 1
			img.Data[4*8+3] = 1
			img.Data[4*8+4] = 1
		}
		// Noise so the problem is not literally three points.
		for j := range img.Data {
			img.Data[j] += 0.1 * g.Float32()
		}
	}
	opt := NewAdam(net.Params(), 0.01)
	var loss float64
	for epoch := 0; epoch < 30; epoch++ {
		opt.ZeroGrad()
		logits := net.Forward(x, true)
		var dlogits *tensor.Tensor
		loss, dlogits = SoftmaxCrossEntropy(logits, labels)
		net.Backward(dlogits)
		opt.Step()
	}
	logits := net.Forward(x, false)
	if acc := Accuracy(logits, labels); acc < 0.95 {
		t.Fatalf("failed to overfit: acc=%v loss=%v", acc, loss)
	}
}
