package nn

import (
	"fmt"

	"lcrs/internal/tensor"
)

// Linear is a fully connected layer: out = x W^T + b with W of shape
// (Out, In). Input is (batch, In).
type Linear struct {
	name    string
	In, Out int
	Weight  *Param // (Out, In)
	Bias    *Param // (Out)

	lastInput *tensor.Tensor

	// Eval fast-path state. A single row runs TransBRange over column
	// chunks: kern is that persistent ParallelFor body (a method value,
	// created once so steady-state forwards do not allocate a closure),
	// evalIn/evalOut the tensors it operates on during one Forward call. A
	// batch runs the batched GEMM state gemm, whose input panel is panel
	// (persistent here, or carved from arena when one is installed). arena
	// is the serving replica's scratch arena (nil unless installed via
	// SetArena).
	kern            func(lo, hi int)
	evalIn, evalOut *tensor.Tensor
	gemm            tensor.FCGemmState
	panel           []float32
	arena           *tensor.Arena
}

// SetArena implements ArenaScratch.
func (l *Linear) SetArena(a *tensor.Arena) { l.arena = a }

// CloneForInference implements ForwardContext: the clone shares Weight and
// Bias but owns private eval state, so concurrent eval forwards on clone
// and original are safe.
func (l *Linear) CloneForInference() Layer {
	return &Linear{name: l.name, In: l.In, Out: l.Out, Weight: l.Weight, Bias: l.Bias}
}

// NewLinear constructs a dense layer with Kaiming-initialized weights, or
// zero weights when g is nil (see NewConv2D).
func NewLinear(name string, g *tensor.RNG, in, out int) *Linear {
	l := &Linear{name: name, In: in, Out: out}
	var w *tensor.Tensor
	if g != nil {
		w = g.KaimingLinear(out, in)
	} else {
		w = tensor.New(out, in)
	}
	l.Weight = NewParam(name+".weight", w)
	l.Bias = NewParam(name+".bias", tensor.New(out))
	return l
}

// Name implements Layer.
func (l *Linear) Name() string { return l.name }

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// OutShape implements Layer.
func (l *Linear) OutShape(in []int) []int {
	if shapeProduct(in) != l.In {
		panic(fmt.Sprintf("nn: %s expects %d input features, got shape %v", l.name, l.In, in))
	}
	return []int{l.Out}
}

// FLOPs implements Layer.
func (l *Linear) FLOPs(in []int) int64 { return int64(l.Out) * int64(2*l.In+1) }

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkRank(l.name, x, 2)
	if x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: %s expects %d input features, got %d", l.name, l.In, x.Dim(1)))
	}
	if !train {
		// Zero-alloc eval path: output from the arena (heap if none). Per
		// element this is the same ascending-k dot product plus one bias
		// add as the train path below, so results are bitwise identical to
		// it. A batch streams every weight row once for up to eight rows
		// (tensor.FCGemmState); a single row keeps the column-chunked
		// TransBRange, which reads its input once instead of through an
		// eight-lane panel.
		m := x.Dim(0)
		out := EvalTensor(l.arena, m, l.Out)
		if m >= 2 {
			l.forwardBatch(x, out)
			return out
		}
		if l.kern == nil {
			l.kern = l.evalRange
		}
		l.evalIn, l.evalOut = x, out
		tensor.ParallelFor(l.Out, l.kern)
		l.evalIn, l.evalOut = nil, nil
		return out
	}
	// (N x In) x (Out x In)^T = N x Out
	out := tensor.MatMulTransB(x, l.Weight.Value)
	for i := 0; i < out.Dim(0); i++ {
		row := out.Row(i)
		for j := range row {
			row[j] += l.Bias.Value.Data[j]
		}
	}
	l.lastInput = x
	return out
}

// evalRange computes output columns [lo, hi) of the eval forward: the
// transposed-B GEMM columns plus their bias. Chunks own disjoint columns,
// so any worker count gives bitwise-identical results.
func (l *Linear) evalRange(lo, hi int) {
	tensor.TransBRange(l.evalOut, l.evalIn, l.Weight.Value, lo, hi)
	bd := l.Bias.Value.Data
	n := l.evalOut.Dim(0)
	for i := 0; i < n; i++ {
		row := l.evalOut.Row(i)
		for j := lo; j < hi; j++ {
			row[j] += bd[j]
		}
	}
}

// forwardBatch is the eval forward of two or more rows.
func (l *Linear) forwardBatch(x, out *tensor.Tensor) {
	m := x.Dim(0)
	need := tensor.FCPanelLen(m, l.In)
	var panel []float32
	if l.arena != nil {
		panel = l.arena.Floats(need)
	} else {
		if cap(l.panel) < need {
			l.panel = make([]float32, need)
		}
		panel = l.panel[:need]
	}
	st := &l.gemm
	st.W, st.Bias, st.X, st.Out, st.Panel = l.Weight.Value.Data, l.Bias.Value.Data, x.Data, out.Data, panel
	st.M, st.K, st.N = m, l.In, l.Out
	st.Run()
	st.X, st.Out = nil, nil
}

// Backward implements Layer.
func (l *Linear) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if l.lastInput == nil {
		panic(fmt.Sprintf("nn: %s Backward before training Forward", l.name))
	}
	x := l.lastInput
	// dW (Out x In) += dOut^T (Out x N) x X (N x In)
	dw := tensor.MatMulTransA(dout, x)
	l.Weight.EnsureGrad().AddScaled(1, dw)
	// db += column sums of dOut
	for i := 0; i < dout.Dim(0); i++ {
		row := dout.Row(i)
		for j, v := range row {
			l.Bias.EnsureGrad().Data[j] += v
		}
	}
	// dX (N x In) = dOut (N x Out) x W (Out x In)
	return tensor.MatMul(dout, l.Weight.Value)
}
