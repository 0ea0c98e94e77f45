package nn

import (
	"math"

	"lcrs/internal/tensor"
)

// ReLU is the rectified linear activation, applied element-wise.
type ReLU struct {
	name  string
	mask  []bool // true where input > 0 in the last training forward
	arena *tensor.Arena
}

// NewReLU constructs a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// SetArena implements ArenaScratch.
func (r *ReLU) SetArena(a *tensor.Arena) { r.arena = a }

// CloneForInference implements ForwardContext; the clone owns private
// eval state (the arena installed on a serving replica).
func (r *ReLU) CloneForInference() Layer { return &ReLU{name: r.name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// OutShape implements Layer.
func (r *ReLU) OutShape(in []int) []int { return append([]int(nil), in...) }

// FLOPs implements Layer.
func (r *ReLU) FLOPs(in []int) int64 { return int64(shapeProduct(in)) }

// Forward implements Layer. Every output element is written explicitly —
// arena-backed eval outputs recycle a previous request's bytes, so relying
// on zeroed storage for the negative lanes would leak stale values.
//
// The eval loop decides from v's bits instead of branching on v > 0: an
// activation's sign is random, so the branch would mispredict on half the
// elements. Read as an unsigned integer, the bit pattern is at most
// 0x7f800000 (+Inf) exactly when v is +0 or above, and not a NaN; those
// patterns are kept and all others masked to +0. That is v > 0 ? v : 0 to
// the bit: +0 is kept as itself, -0, negatives and NaNs become +0.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		out := EvalTensor(r.arena, x.Shape...)
		dst := out.Data[:len(x.Data)]
		for i, v := range x.Data {
			u := math.Float32bits(v)
			keep := (uint64(u) - 0x7f800001) >> 63
			dst[i] = math.Float32frombits(u & -uint32(keep))
		}
		return out
	}
	out := tensor.New(x.Shape...)
	if cap(r.mask) < len(x.Data) {
		r.mask = make([]bool, len(x.Data))
	}
	r.mask = r.mask[:len(x.Data)]
	for i, v := range x.Data {
		pos := v > 0
		if pos {
			out.Data[i] = v
		}
		r.mask[i] = pos
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(dout.Shape...)
	for i, v := range dout.Data {
		if r.mask[i] {
			dx.Data[i] = v
		}
	}
	return dx
}

// Flatten reshapes NCHW activations to (batch, features). It is shape
// bookkeeping only; storage is shared.
type Flatten struct {
	name      string
	lastShape []int
	arena     *tensor.Arena
}

// NewFlatten constructs a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// SetArena implements ArenaScratch.
func (f *Flatten) SetArena(a *tensor.Arena) { f.arena = a }

// CloneForInference implements ForwardContext.
func (f *Flatten) CloneForInference() Layer { return &Flatten{name: f.name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// OutShape implements Layer.
func (f *Flatten) OutShape(in []int) []int { return []int{shapeProduct(in)} }

// FLOPs implements Layer.
func (f *Flatten) FLOPs(in []int) int64 { return 0 }

// Forward implements Layer. Reshape allocates a fresh header; on an
// arena-equipped eval path the header comes from the arena instead, so
// the flatten costs nothing per request.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train && f.arena != nil {
		return f.arena.View(x, x.Dim(0), x.Len()/x.Dim(0))
	}
	if train {
		f.lastShape = append([]int(nil), x.Shape...)
	}
	return x.Reshape(x.Dim(0), -1)
}

// Backward implements Layer.
func (f *Flatten) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return dout.Reshape(f.lastShape...)
}
