package models

import (
	"fmt"

	"lcrs/internal/binary"
	"lcrs/internal/nn"
	"lcrs/internal/tensor"
)

// stack builds a Sequential while tracking the current per-sample shape, so
// flatten sizes and FC widths are derived from the architecture instead of
// hard-coded.
type stack struct {
	seq *nn.Sequential
	cur []int
}

func newStack(name string, in []int) *stack {
	return &stack{seq: nn.NewSequential(name), cur: append([]int(nil), in...)}
}

func (s *stack) add(l nn.Layer) *stack {
	s.seq.Append(l)
	s.cur = l.OutShape(s.cur)
	return s
}

// features returns the flattened feature count of the current shape.
func (s *stack) features() int {
	n := 1
	for _, d := range s.cur {
		n *= d
	}
	return n
}

// chw unpacks the current shape, panicking if it is not CHW.
func (s *stack) chw() (c, h, w int) {
	if len(s.cur) != 3 {
		panic(fmt.Sprintf("models: expected CHW shape, got %v", s.cur))
	}
	return s.cur[0], s.cur[1], s.cur[2]
}

// archs holds the one definition of each architecture: a function of the
// configuration and the weight-init stream g. A nil g asks for a client
// build (see BuildClient); the definitions hand g to bconv, blinear and the
// nn constructors and leave the main branch out when it is nil.
var archs = map[string]func(cfg Config, g *tensor.RNG) *Composite{
	"lenet":    leNet,
	"alexnet":  alexNet,
	"resnet18": resNet18,
	"vgg16":    vgg16,
}

// bconv returns a build's binary convolution: the training-time layer with
// float shadow weights drawn from g, or on a client build (nil g) the
// packed layer itself, zeroed.
func bconv(name string, g *tensor.RNG, inC, outC, kh, kw, stride, pad int) nn.Layer {
	if g == nil {
		return binary.PackedLayer{Conv: binary.NewPackedConv2D(name, inC, outC, kh, kw, stride, pad)}
	}
	return binary.NewConv2D(name, g, inC, outC, kh, kw, stride, pad)
}

// blinear is bconv for a binary dense layer.
func blinear(name string, g *tensor.RNG, in, out int) nn.Layer {
	if g == nil {
		return binary.PackedLayer{Linear: binary.NewPackedLinear(name, in, out)}
	}
	return binary.NewLinear(name, g, in, out)
}

// Build returns a named composite by architecture name: "lenet", "alexnet",
// "resnet18" or "vgg16", with weights initialized from cfg.Seed.
func Build(name string, cfg Config) (*Composite, error) {
	return build(name, cfg, tensor.NewRNG(cfg.Seed))
}

// BuildClient returns the inference-only skeleton of a named architecture:
// the shared prefix and the binary branch, whose binary layers are packed
// (binary.PackedLayer) from the start — one bit per weight, never a float
// shadow weight. MainRest is nil, every weight is zero and nothing is drawn
// from an RNG; modelio.DecodeBrowserBundle fills it from a browser bundle.
// Layer names, order and shapes are those of Build: both come from the same
// definition.
//
// A client composite runs its eval forwards out of one arena installed over
// Shared and Binary, so that a recognition reuses the memory of the one
// before. The contract is CloneForServing's: call ResetScratch before each
// recognition; the tensors a forward returns are valid until the next
// ResetScratch, so copy out whatever must outlive it. Nothing is sized
// here: the first recognition sizes the arena. Without a ResetScratch the
// arena only ever overflows to the heap, and forwards behave as they would
// without one.
func BuildClient(name string, cfg Config) (*Composite, error) {
	m, err := build(name, cfg, nil)
	if err != nil {
		return nil, err
	}
	m.arena = tensor.NewArena()
	nn.InstallArena(m.Shared, m.arena)
	nn.InstallArena(m.Binary, m.arena)
	return m, nil
}

func build(name string, cfg Config, g *tensor.RNG) (*Composite, error) {
	def, ok := archs[name]
	if !ok {
		return nil, fmt.Errorf("models: unknown architecture %q", name)
	}
	m := def(cfg, g)
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Names lists the supported architectures in the order the paper's tables
// report them.
func Names() []string { return []string{"lenet", "alexnet", "resnet18", "vgg16"} }
