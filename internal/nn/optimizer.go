package nn

import (
	"math"

	"lcrs/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba), the gradient-descent variant the
// paper names for training the main branch.
type Adam struct {
	params  []*Param
	lr      float64
	beta1   float64
	beta2   float64
	eps     float64
	t       int
	moment1 []*tensor.Tensor
	moment2 []*tensor.Tensor
}

// NewAdam constructs an Adam optimizer with the conventional defaults
// beta1=0.9, beta2=0.999, eps=1e-8.
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{params: params, lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
	a.moment1 = make([]*tensor.Tensor, len(params))
	a.moment2 = make([]*tensor.Tensor, len(params))
	for i, p := range params {
		a.moment1[i] = tensor.New(p.Value.Shape...)
		a.moment2[i] = tensor.New(p.Value.Shape...)
	}
	return a
}

// Step applies one update using the current gradients.
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.beta2, float64(a.t))
	stepSize := a.lr * math.Sqrt(bc2) / bc1
	b1, b2 := float32(a.beta1), float32(a.beta2)
	for i, p := range a.params {
		m, v := a.moment1[i], a.moment2[i]
		g := p.EnsureGrad()
		for j := range g.Data {
			gj := g.Data[j]
			m.Data[j] = float32(b1*m.Data[j]) + float32((1-b1)*gj)
			v.Data[j] = float32(b2*v.Data[j]) + float32((1-b2)*gj*gj)
			p.Value.Data[j] -= float32(stepSize) * m.Data[j] /
				(float32(math.Sqrt(float64(v.Data[j]))) + float32(a.eps))
		}
	}
}

// ZeroGrad clears all gradient accumulators; call before each batch.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.EnsureGrad().Zero()
	}
}

// SetLR changes the learning rate (used by schedules, Algorithm 1's
// Update(eta, l)).
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// StepDecay is a learning-rate schedule that multiplies the rate by Factor
// every Every epochs — the Update(eta, l) step of Algorithm 1.
type StepDecay struct {
	Initial float64
	Factor  float64
	Every   int
}

// At returns the learning rate for the given zero-based epoch.
func (s StepDecay) At(epoch int) float64 {
	if s.Every <= 0 {
		return s.Initial
	}
	return s.Initial * math.Pow(s.Factor, float64(epoch/s.Every))
}

// ClipGradients scales all gradients down so their global L2 norm is at
// most maxNorm. It returns the pre-clip norm. Joint training uses this to
// keep the binarized branch's straight-through gradients from destabilizing
// shared layers.
func ClipGradients(params []*Param, maxNorm float64) float64 {
	var ss float64
	for _, p := range params {
		if p.Grad == nil {
			continue // never touched: contributes nothing, nothing to scale
		}
		for _, g := range p.Grad.Data {
			ss += float64(float64(g) * float64(g))
		}
	}
	norm := math.Sqrt(ss)
	if norm > maxNorm && norm > 0 {
		scale := float32(maxNorm / norm)
		for _, p := range params {
			if p.Grad != nil {
				p.Grad.Scale(scale)
			}
		}
	}
	return norm
}
