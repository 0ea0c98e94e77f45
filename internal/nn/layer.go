// Package nn is the neural-network substrate: layers with explicit
// forward/backward passes, losses, optimizers and the Sequential container.
// It deliberately implements a layer graph rather than a tape-based autograd;
// the paper's training procedure (Algorithm 1) is expressed directly in
// terms of per-layer StandardForward/StandardBackward calls, and an explicit
// graph keeps those steps auditable.
package nn

import (
	"fmt"

	"lcrs/internal/tensor"
)

// Param is a trainable tensor with its gradient accumulator. Optimizers
// update Value in place from Grad.
type Param struct {
	// Name identifies the parameter for serialization ("conv1.weight").
	Name string
	// Value is the current parameter tensor.
	Value *tensor.Tensor
	// Grad accumulates the gradient of the loss with respect to Value. It
	// is nil until training first touches it (Backward, Optimizer.ZeroGrad
	// and Step go through EnsureGrad), so a model that only ever runs eval
	// forwards carries no gradient memory; once allocated it has the shape
	// of Value and is zeroed by Optimizer.ZeroGrad.
	Grad *tensor.Tensor
	// NoDecay marks parameters excluded from weight decay (biases, norms).
	NoDecay bool
}

// NewParam wraps value as a parameter. The gradient is allocated on first
// use, not here.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value}
}

// EnsureGrad returns p.Grad, allocating it zeroed on first use.
func (p *Param) EnsureGrad() *tensor.Tensor {
	if p.Grad == nil {
		p.Grad = tensor.New(p.Value.Shape...)
	}
	return p.Grad
}

// Layer is one differentiable stage of a network.
//
// Forward consumes the input and returns the output; when train is true the
// layer may cache activations needed by Backward and update running
// statistics. Backward consumes dL/d(output) and returns dL/d(input),
// accumulating parameter gradients into Params. A Backward call must be
// preceded by a Forward call with train=true on the same layer.
type Layer interface {
	// Name returns a short identifier used in serialized models and logs.
	Name() string
	// Forward runs the layer on x. x uses NCHW layout for spatial layers
	// and (batch, features) for dense layers.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates the output gradient and returns the input
	// gradient.
	Backward(dout *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameters; may be empty.
	Params() []*Param
	// OutShape returns the per-sample output shape given the per-sample
	// input shape (no batch dimension).
	OutShape(in []int) []int
	// FLOPs returns the approximate floating-point operations needed for a
	// single-sample forward pass given the per-sample input shape. It is
	// the basis for the device latency model.
	FLOPs(in []int) int64
}

// shapeProduct multiplies the dimensions of a per-sample shape.
func shapeProduct(s []int) int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// checkRank panics with a layer-qualified message when x does not have the
// expected rank.
func checkRank(layer string, x *tensor.Tensor, rank int) {
	if x.Rank() != rank {
		panic(fmt.Sprintf("nn: %s expects rank-%d input, got shape %v", layer, rank, x.Shape))
	}
}
