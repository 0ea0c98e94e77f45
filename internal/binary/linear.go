package binary

import (
	"fmt"

	"lcrs/internal/nn"
	"lcrs/internal/tensor"
)

// Linear is a training-time binary fully connected layer:
// out = beta_b * alpha_o * (sign(x_b) . sign(W_o)) + bias_o, with
// full-precision shadow weights and straight-through gradients.
type Linear struct {
	name    string
	In, Out int
	Weight  *nn.Param // (Out, In)
	Bias    *nn.Param // (Out)

	lastInput *tensor.Tensor
	lastSignX *tensor.Tensor // beta-scaled sign(x)
	lastBeta  []float32
	lastAlpha []float32
}

var _ nn.Layer = (*Linear)(nil)

// NewLinear constructs a binary dense layer.
func NewLinear(name string, g *tensor.RNG, in, out int) *Linear {
	l := &Linear{name: name, In: in, Out: out}
	l.Weight = nn.NewParam(name+".weight", g.KaimingLinear(out, in))
	l.Bias = nn.NewParam(name+".bias", tensor.New(out))
	return l
}

// Name implements nn.Layer.
func (l *Linear) Name() string { return l.name }

// Params implements nn.Layer.
func (l *Linear) Params() []*nn.Param { return []*nn.Param{l.Weight, l.Bias} }

// OutShape implements nn.Layer.
func (l *Linear) OutShape(in []int) []int {
	n := 1
	for _, d := range in {
		n *= d
	}
	if n != l.In {
		panic(fmt.Sprintf("binary: %s expects %d input features, got shape %v", l.name, l.In, in))
	}
	return []int{l.Out}
}

// FLOPs implements nn.Layer; see xnorFLOPs for the 64-lane accounting.
func (l *Linear) FLOPs(in []int) int64 { return xnorFLOPs(l.Out, l.In) }

// Forward implements nn.Layer.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != l.In {
		panic(fmt.Sprintf("binary: %s expects (batch,%d) input, got %v", l.name, l.In, x.Shape))
	}
	n := x.Dim(0)
	wEst := tensor.New(l.Out, l.In)
	alphas := EstimateWeights(wEst, l.Weight.Value)

	signX := tensor.New(n, l.In)
	betas := make([]float32, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		beta := RowScale(row)
		betas[i] = beta
		dst := signX.Row(i)
		for j, v := range row {
			if v < 0 {
				dst[j] = -beta
			} else {
				dst[j] = beta
			}
		}
	}

	out := tensor.MatMulTransB(signX, wEst) // N x Out
	for i := 0; i < n; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] += l.Bias.Value.Data[j]
		}
	}
	if train {
		l.lastInput = x
		l.lastSignX = signX
		l.lastBeta = betas
		l.lastAlpha = alphas
	}
	return out
}

// Backward implements nn.Layer.
func (l *Linear) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if l.lastInput == nil {
		panic(fmt.Sprintf("binary: %s Backward before training Forward", l.name))
	}
	x := l.lastInput
	n := x.Dim(0)

	wEst := tensor.New(l.Out, l.In)
	EstimateWeights(wEst, l.Weight.Value)

	// dW~ (Out x In) = dOut^T (Out x N) x signX (N x In)
	dEst := tensor.MatMulTransA(dout, l.lastSignX)
	WeightGradThrough(l.Weight.EnsureGrad(), dEst, l.Weight.Value, l.lastAlpha)

	for i := 0; i < n; i++ {
		row := dout.Row(i)
		for j, v := range row {
			l.Bias.EnsureGrad().Data[j] += v
		}
	}

	// dsignX (N x In) = dOut (N x Out) x W~ (Out x In), then STE with the
	// beta scale folded in.
	dsign := tensor.MatMul(dout, wEst)
	dx := tensor.New(x.Shape...)
	for i := 0; i < n; i++ {
		beta := l.lastBeta[i]
		xr := x.Row(i)
		dr := dsign.Row(i)
		dst := dx.Row(i)
		for j, v := range dr {
			if xr[j] >= -1 && xr[j] <= 1 {
				dst[j] = v * beta
			}
		}
	}
	return dx
}
