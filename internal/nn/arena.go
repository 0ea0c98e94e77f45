package nn

import "lcrs/internal/tensor"

// ArenaScratch is implemented by layers whose eval-mode Forward can serve
// outputs and scratch from a caller-owned bump arena instead of the heap.
// An installed arena makes the layer's eval Forward allocation-free at
// steady state; the outputs it returns are only valid until the arena's
// next Reset.
//
// Install an arena only on layer trees that run one forward at a time — a
// serving replica (models.Composite.CloneForServing) or a client build
// (models.BuildClient): layers obtained from CloneForInference have
// private scratch, so the arena is never shared across goroutines.
type ArenaScratch interface {
	SetArena(a *tensor.Arena)
}

// InstallArena walks l and hands a to every arena-aware layer.
func InstallArena(l Layer, a *tensor.Arena) {
	Walk(l, func(x Layer) {
		if as, ok := x.(ArenaScratch); ok {
			as.SetArena(a)
		}
	})
}

// EvalTensor allocates an eval-mode output tensor: from the arena when one
// is installed — contents are UNINITIALIZED, the caller must write every
// element — from the (zeroed) heap otherwise. The heap branch copies shape
// before handing it to tensor.New, whose panic paths make its argument
// escape; without the copy every call site would heap-allocate its shape
// literal even on the arena path, costing the zero-alloc budget one object
// per layer per request.
func EvalTensor(a *tensor.Arena, shape ...int) *tensor.Tensor {
	if a != nil {
		return a.New(shape...)
	}
	return tensor.New(append([]int(nil), shape...)...)
}
