package nn

import (
	"fmt"

	"lcrs/internal/tensor"
)

// Sequential chains layers, feeding each layer's output to the next. It is
// itself a Layer, so networks compose (residual blocks contain Sequentials).
type Sequential struct {
	name   string
	Layers []Layer
}

// NewSequential constructs a container from the given layers.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{name: name, Layers: layers}
}

// Append adds layers to the end of the chain.
func (s *Sequential) Append(layers ...Layer) { s.Layers = append(s.Layers, layers...) }

// Name implements Layer.
func (s *Sequential) Name() string { return s.name }

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// OutShape implements Layer.
func (s *Sequential) OutShape(in []int) []int {
	for _, l := range s.Layers {
		in = l.OutShape(in)
	}
	return in
}

// FLOPs implements Layer.
func (s *Sequential) FLOPs(in []int) int64 {
	var total int64
	for _, l := range s.Layers {
		total += l.FLOPs(in)
		in = l.OutShape(in)
	}
	return total
}

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(dout *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dout = s.Layers[i].Backward(dout)
	}
	return dout
}

// Residual implements a residual block: out = ReLU(Body(x) + Shortcut(x)).
// Shortcut may be nil for an identity skip connection.
type Residual struct {
	name     string
	Body     *Sequential
	Shortcut *Sequential // nil means identity

	relu  *ReLU
	arena *tensor.Arena
}

// NewResidual constructs a residual block.
func NewResidual(name string, body, shortcut *Sequential) *Residual {
	return &Residual{name: name, Body: body, Shortcut: shortcut, relu: NewReLU(name + ".relu")}
}

// SetArena implements ArenaScratch. Walk installs arenas on Body and
// Shortcut children separately; this one covers the block's own add+relu
// output (r.relu is bypassed on the eval path, see Forward).
func (r *Residual) SetArena(a *tensor.Arena) { r.arena = a }

// Name implements Layer.
func (r *Residual) Name() string { return r.name }

// Params implements Layer.
func (r *Residual) Params() []*Param {
	ps := r.Body.Params()
	if r.Shortcut != nil {
		ps = append(ps, r.Shortcut.Params()...)
	}
	return ps
}

// OutShape implements Layer.
func (r *Residual) OutShape(in []int) []int { return r.Body.OutShape(in) }

// FLOPs implements Layer.
func (r *Residual) FLOPs(in []int) int64 {
	total := r.Body.FLOPs(in)
	if r.Shortcut != nil {
		total += r.Shortcut.FLOPs(in)
	}
	total += int64(shapeProduct(r.Body.OutShape(in))) // the addition
	return total
}

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	main := r.Body.Forward(x, train)
	skip := x
	if r.Shortcut != nil {
		skip = r.Shortcut.Forward(x, train)
	}
	if !main.SameShape(skip) {
		panic(fmt.Sprintf("nn: %s branch shapes differ: %v vs %v", r.name, main.Shape, skip.Shape))
	}
	if !train {
		// Fused add+relu: per element max(main+skip, 0), exactly what
		// tensor.Add followed by the eval ReLU computes, without the
		// intermediate sum tensor. Every output element is written, so
		// uninitialized arena storage is safe. r.relu is shared between a
		// model and its inference clones (CloneForInference keeps the
		// pointer), so the eval path must not touch its state.
		out := EvalTensor(r.arena, main.Shape...)
		sd := skip.Data
		for i, v := range main.Data {
			if s := v + sd[i]; s > 0 {
				out.Data[i] = s
			} else {
				out.Data[i] = 0
			}
		}
		return out
	}
	sum := tensor.Add(main, skip)
	return r.relu.Forward(sum, train)
}

// Backward implements Layer.
func (r *Residual) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dsum := r.relu.Backward(dout)
	dx := r.Body.Backward(dsum)
	if r.Shortcut != nil {
		dskip := r.Shortcut.Backward(dsum)
		dx = tensor.Add(dx, dskip)
	} else {
		dx = tensor.Add(dx, dsum)
	}
	return dx
}
