// Package models defines the paper's network architectures (LeNet, AlexNet,
// ResNet18, VGG16 adapted to 28x28 and 32x32 inputs), the builder for binary
// side branches, and the Composite type that ties a shared first
// convolutional layer to a full-precision main branch and a binary branch
// (Figure 2 of the paper).
package models

import (
	"fmt"

	"lcrs/internal/binary"
	"lcrs/internal/nn"
	"lcrs/internal/tensor"
)

// Config describes the input domain a network is built for.
type Config struct {
	// Classes is the number of output classes.
	Classes int
	// InC, InH, InW describe the input sample shape.
	InC, InH, InW int
	// WidthScale scales channel and hidden-unit counts. 1.0 builds the
	// paper-size architecture; smaller values build proportionally narrower
	// networks that train quickly for tests and CI. Sizes reported in
	// Table I style experiments always come from WidthScale=1 builds.
	WidthScale float64
	// Seed seeds weight initialization.
	Seed int64
}

// InShape returns the per-sample input shape.
func (c Config) InShape() []int { return []int{c.InC, c.InH, c.InW} }

// scaled applies WidthScale to a channel count, with a floor to keep
// networks functional at tiny scales.
func (c Config) scaled(ch int) int {
	s := c.WidthScale
	if s == 0 {
		s = 1
	}
	n := int(float64(ch) * s)
	if n < 4 {
		n = 4
	}
	return n
}

// Composite is the paper's LCRS network: a shared prefix (the first
// convolutional layer and its activation/pooling), a full-precision main
// branch that continues from the prefix, and a binary branch that exits
// early from the same prefix.
type Composite struct {
	// Name identifies the architecture ("alexnet", ...).
	Name string
	// Shared is the prefix executed on every path (conv1 in the paper).
	Shared *nn.Sequential
	// MainRest is the remainder of the main branch, deployed at the edge.
	// It is nil on a client build (BuildClient), where only the shared
	// prefix and the binary branch may be run.
	MainRest *nn.Sequential
	// Binary is the side branch, deployed in the mobile web browser. It
	// mixes binary.Conv2D/binary.Linear layers (binary.PackedLayer on a
	// client build) with float pooling and a float final classifier, per
	// the paper's structure guidance (IV-D3).
	Binary *nn.Sequential
	// Cfg is the configuration the network was built with.
	Cfg Config

	// arena backs per-request eval scratch on CloneForServing replicas
	// (MainRest) and on client builds (Shared and Binary, see BuildClient);
	// nil on Build models and plain CloneForInference copies.
	arena *tensor.Arena
}

// CloneForInference returns an eval-mode forward context for the network:
// a Composite sharing every parameter and running statistic with m but
// owning private per-layer scratch buffers, so the clone and the original
// may run eval-mode forward passes on different goroutines concurrently.
// The edge server's replica pool holds one clone per concurrent inference
// slot; the added memory per replica is only the scratch footprint (im2col
// buffers), not the weights.
func (m *Composite) CloneForInference() *Composite {
	return &Composite{
		Name:     m.Name,
		Shared:   nn.CloneForInference(m.Shared).(*nn.Sequential),
		MainRest: nn.CloneForInference(m.MainRest).(*nn.Sequential),
		Binary:   nn.CloneForInference(m.Binary).(*nn.Sequential),
		Cfg:      m.Cfg,
	}
}

// CloneForServing returns an inference clone whose MainRest layers draw
// their eval outputs and pack panels from a shared bump arena instead of
// the heap. After warm-up the arena's slabs have reached their high-water
// mark and a steady-state ForwardMainRest performs zero heap allocations
// (edge.TestServerReplicaForwardZeroAllocs). The contract: call
// ResetScratch before each request's forward, and copy anything you need
// out of the returned tensors before the next Reset — arena storage is
// recycled, not freed.
func (m *Composite) CloneForServing() *Composite {
	c := m.CloneForInference()
	c.arena = tensor.NewArena()
	nn.InstallArena(c.MainRest, c.arena)
	return c
}

// ResetScratch recycles the arena scratch of a serving replica or a client
// build (no-op without one). Tensors returned by earlier forwards on this
// composite become invalid.
func (m *Composite) ResetScratch() {
	if m.arena != nil {
		m.arena.Reset()
	}
}

// Validate checks internal shape consistency and returns a descriptive
// error when branch shapes do not line up.
func (m *Composite) Validate() error {
	shared := m.Shared.OutShape(m.Cfg.InShape())
	binOut := m.Binary.OutShape(shared)
	if m.MainRest != nil {
		mainOut := m.MainRest.OutShape(shared)
		if len(mainOut) != 1 || mainOut[0] != m.Cfg.Classes {
			return fmt.Errorf("models: %s main branch outputs %v, want [%d]", m.Name, mainOut, m.Cfg.Classes)
		}
	}
	if len(binOut) != 1 || binOut[0] != m.Cfg.Classes {
		return fmt.Errorf("models: %s binary branch outputs %v, want [%d]", m.Name, binOut, m.Cfg.Classes)
	}
	return nil
}

// SharedOutShape returns the per-sample shape of the shared prefix output —
// the intermediate tensor shipped to the edge server when the binary branch
// is not confident.
func (m *Composite) SharedOutShape() []int { return m.Shared.OutShape(m.Cfg.InShape()) }

// ForwardShared runs the shared prefix.
func (m *Composite) ForwardShared(x *tensor.Tensor, train bool) *tensor.Tensor {
	return m.Shared.Forward(x, train)
}

// ForwardMain runs the full main branch (shared prefix + rest).
func (m *Composite) ForwardMain(x *tensor.Tensor, train bool) *tensor.Tensor {
	return m.MainRest.Forward(m.Shared.Forward(x, train), train)
}

// ForwardMainRest runs only the post-prefix main branch, as the edge server
// does on a received intermediate tensor (Algorithm 2 line 8).
func (m *Composite) ForwardMainRest(t *tensor.Tensor, train bool) *tensor.Tensor {
	return m.MainRest.Forward(t, train)
}

// WarmMainRest sizes the main-branch-rest scratch (the arena slabs, which
// hold the conv pack panels, one per worker, and the FC input panels, and
// the conv layers' per-worker GEMM states) for batches of up to n samples
// by running one throwaway eval forward on a zero batch, then resetting the
// scratch: the arena grows its slabs on the reset that follows an
// overflowing forward. The edge server warms each inference replica this
// way for its batch cap, so the first coalesced batch pays no allocations.
func (m *Composite) WarmMainRest(n int) {
	if n < 1 {
		n = 1
	}
	m.ForwardMainRest(tensor.New(append([]int{n}, m.SharedOutShape()...)...), false)
	m.ResetScratch()
}

// ForwardBinary runs the binary branch on a shared-prefix output.
func (m *Composite) ForwardBinary(t *tensor.Tensor, train bool) *tensor.Tensor {
	return m.Binary.Forward(t, train)
}

// MainParams returns the parameters updated when training the main branch
// (shared prefix + main rest), Algorithm 1 lines 1-5.
func (m *Composite) MainParams() []*nn.Param {
	return append(m.Shared.Params(), m.MainRest.Params()...)
}

// BinaryParams returns the parameters updated when training the binary
// branch, Algorithm 1 lines 6-14. The shared prefix is excluded so binary
// training cannot degrade the already-trained main branch.
func (m *Composite) BinaryParams() []*nn.Param { return m.Binary.Params() }

// MainFLOPs returns per-sample forward FLOPs of the full main branch.
func (m *Composite) MainFLOPs() int64 {
	in := m.Cfg.InShape()
	return m.Shared.FLOPs(in) + m.MainRest.FLOPs(m.Shared.OutShape(in))
}

// BinaryFLOPs returns per-sample forward FLOPs of shared prefix + binary
// branch — the on-browser compute cost.
func (m *Composite) BinaryFLOPs() int64 {
	in := m.Cfg.InShape()
	return m.Shared.FLOPs(in) + m.Binary.FLOPs(m.Shared.OutShape(in))
}

// layerSizeBytes returns the deployed size of one layer: one bit per weight
// (plus float scale/bias) for binary layers, four bytes per parameter for
// float layers, and the running statistics for batch norm.
func layerSizeBytes(l nn.Layer) int64 {
	switch t := l.(type) {
	case *binary.Conv2D:
		k := t.InC * t.KH * t.KW
		bits := int64(t.OutC) * int64(k)
		return (bits+7)/8 + int64(t.OutC)*8 // packed bits + alpha + bias
	case *binary.Linear:
		bits := int64(t.Out) * int64(t.In)
		return (bits+7)/8 + int64(t.Out)*8
	case *nn.BatchNorm:
		var pb int64
		for _, p := range l.Params() {
			pb += int64(p.Value.Len()) * 4
		}
		return pb + int64(t.RunningMean.Len())*4 + int64(t.RunningVar.Len())*4
	case *nn.Sequential:
		var s int64
		for _, inner := range t.Layers {
			s += layerSizeBytes(inner)
		}
		return s
	case *nn.Residual:
		s := layerSizeBytes(t.Body)
		if t.Shortcut != nil {
			s += layerSizeBytes(t.Shortcut)
		}
		return s
	case interface{ SizeBytes() int64 }:
		// Layers that know their own deployed footprint (e.g. the k-bit
		// quantized layers of internal/bench's precision ablation).
		return t.SizeBytes()
	default:
		var s int64
		for _, p := range l.Params() {
			s += int64(p.Value.Len()) * 4
		}
		return s
	}
}

// MainSizeBytes returns the deployed model size of the full main branch
// (shared prefix + rest) in bytes — M_size in Table I.
func (m *Composite) MainSizeBytes() int64 {
	return layerSizeBytes(m.Shared) + layerSizeBytes(m.MainRest)
}

// BinarySizeBytes returns the deployed size of what the browser loads:
// shared prefix (float) + binary branch (bit-packed) — B_size in Table I.
func (m *Composite) BinarySizeBytes() int64 {
	return layerSizeBytes(m.Shared) + layerSizeBytes(m.Binary)
}
