package nn

import (
	"math"

	"lcrs/internal/tensor"
)

// Optimizer updates a fixed set of parameters from their accumulated
// gradients.
type Optimizer interface {
	// Step applies one update using the current gradients.
	Step()
	// ZeroGrad clears all gradient accumulators; call before each batch.
	ZeroGrad()
	// SetLR changes the learning rate (used by schedules, Algorithm 1's
	// Update(eta, l)).
	SetLR(lr float64)
	// LR returns the current learning rate.
	LR() float64
}

// SGD is stochastic gradient descent with optional momentum and decoupled
// weight decay.
type SGD struct {
	params      []*Param
	lr          float64
	momentum    float64
	weightDecay float64
	velocity    []*tensor.Tensor
}

// NewSGD constructs an SGD optimizer over params.
func NewSGD(params []*Param, lr, momentum, weightDecay float64) *SGD {
	s := &SGD{params: params, lr: lr, momentum: momentum, weightDecay: weightDecay}
	if momentum != 0 {
		s.velocity = make([]*tensor.Tensor, len(params))
		for i, p := range params {
			s.velocity[i] = tensor.New(p.Value.Shape...)
		}
	}
	return s
}

// Step implements Optimizer.
func (s *SGD) Step() {
	lr := float32(s.lr)
	for i, p := range s.params {
		g := p.EnsureGrad()
		if s.weightDecay != 0 && !p.NoDecay {
			p.Value.Scale(1 - float32(s.lr*s.weightDecay))
		}
		if s.momentum != 0 {
			v := s.velocity[i]
			mu := float32(s.momentum)
			for j := range v.Data {
				v.Data[j] = float32(mu*v.Data[j]) + g.Data[j]
				p.Value.Data[j] -= float32(lr * v.Data[j])
			}
		} else {
			p.Value.AddScaled(-lr, g)
		}
	}
}

// ZeroGrad implements Optimizer.
func (s *SGD) ZeroGrad() { zeroGrads(s.params) }

// SetLR implements Optimizer.
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// LR implements Optimizer.
func (s *SGD) LR() float64 { return s.lr }

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

// Step implements Optimizer.
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

// ZeroGrad implements Optimizer.
func (a *Adam) ZeroGrad() { zeroGrads(a.params) }

// SetLR implements Optimizer.
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// LR implements Optimizer.
func (a *Adam) LR() float64 { return a.lr }

func zeroGrads(params []*Param) {
	for _, p := range params {
		p.EnsureGrad().Zero()
	}
}

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
