package models

import (
	"strings"
	"testing"

	"lcrs/internal/binary"
	"lcrs/internal/nn"
	"lcrs/internal/tensor"
)

// BuildClient instantiates the definition Build instantiates: same layers
// in the same order under the same names with the same shapes, except that
// the main branch is absent and a binary layer is its packed form. It
// holds no float shadow weight, and the weights it does hold are not drawn.
func TestBuildClientMirrorsBuild(t *testing.T) {
	for _, name := range Names() {
		for domain, cfg := range smallCfgs {
			full, err := Build(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			client, err := BuildClient(name, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, domain, err)
			}
			if client.MainRest != nil {
				t.Fatalf("%s/%s: client build has a main branch", name, domain)
			}
			if got, want := len(client.Shared.Layers), len(full.Shared.Layers); got != want {
				t.Fatalf("%s/%s: shared prefix has %d layers, Build has %d", name, domain, got, want)
			}
			if got, want := len(client.Binary.Layers), len(full.Binary.Layers); got != want {
				t.Fatalf("%s/%s: binary branch has %d layers, Build has %d", name, domain, got, want)
			}
			in := client.SharedOutShape()
			for i, fl := range full.Binary.Layers {
				cl := client.Binary.Layers[i]
				if cl.Name() != fl.Name() {
					t.Fatalf("%s/%s: layer %d is %q, Build has %q", name, domain, i, cl.Name(), fl.Name())
				}
				_, packed := cl.(binary.PackedLayer)
				switch fl.(type) {
				case *binary.Conv2D, *binary.Linear:
					if !packed {
						t.Fatalf("%s/%s: %s is %T on the client, want it packed", name, domain, cl.Name(), cl)
					}
					if cl.FLOPs(in) != fl.FLOPs(in) {
						t.Fatalf("%s/%s: %s FLOPs %d, Build's layer says %d", name, domain, cl.Name(), cl.FLOPs(in), fl.FLOPs(in))
					}
				default:
					if packed {
						t.Fatalf("%s/%s: %s is packed, Build has %T", name, domain, cl.Name(), fl)
					}
				}
				got, want := cl.OutShape(in), fl.OutShape(in)
				if len(got) != len(want) {
					t.Fatalf("%s/%s: %s outputs %v, Build's outputs %v", name, domain, cl.Name(), got, want)
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("%s/%s: %s outputs %v, Build's outputs %v", name, domain, cl.Name(), got, want)
					}
				}
				in = got
			}
			if client.BinarySizeBytes() != full.BinarySizeBytes() {
				t.Fatalf("%s/%s: deployed size %d, Build accounts %d", name, domain, client.BinarySizeBytes(), full.BinarySizeBytes())
			}

			// What is left in float on the client is what the bundle ships
			// in float: no parameter the size of a binary layer's weights.
			var floats, fullFloats int
			for _, p := range append(client.Shared.Params(), client.Binary.Params()...) {
				floats += p.Value.Len()
				if !strings.HasSuffix(p.Name, ".weight") {
					continue
				}
				for _, v := range p.Value.Data {
					if v != 0 {
						t.Fatalf("%s/%s: %s was initialized in a skeleton", name, domain, p.Name)
					}
				}
			}
			for _, p := range full.BinaryParams() {
				fullFloats += p.Value.Len()
			}
			if floats*4 > fullFloats {
				t.Fatalf("%s/%s: client holds %d float parameters, Build's binary branch alone %d", name, domain, floats, fullFloats)
			}

			x := tensor.New(2, cfg.InC, cfg.InH, cfg.InW)
			out := client.ForwardBinary(client.ForwardShared(x, false), false)
			if out.Dim(0) != 2 || out.Dim(1) != cfg.Classes {
				t.Fatalf("%s/%s: skeleton forward gives %v", name, domain, out.Shape)
			}
		}
	}
}

func TestBuildClientUnknownArchitecture(t *testing.T) {
	if _, err := BuildClient("googlenet", smallCfgs["cifar-like"]); err == nil {
		t.Fatal("BuildClient must reject unknown architectures")
	}
}

// Gradients are training state: a model that is built, cloned and run in
// eval mode allocates none, and the first training step allocates them all.
func TestGradientsAllocatedByTrainingOnly(t *testing.T) {
	cfg := smallCfgs["mnist-like"]
	m, err := Build("lenet", cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := append(m.MainParams(), m.BinaryParams()...)
	noGrads := func(when string) {
		t.Helper()
		for _, p := range all {
			if p.Grad != nil {
				t.Fatalf("%s: %s has a gradient tensor", when, p.Name)
			}
		}
	}
	noGrads("after Build")

	x := tensor.NewRNG(2).Uniform(-1, 1, 4, cfg.InC, cfg.InH, cfg.InW)
	for _, c := range []*Composite{m, m.CloneForInference(), m.CloneForServing()} {
		shared := c.ForwardShared(x, false)
		c.ForwardMainRest(shared, false)
		c.ForwardBinary(shared, false)
	}
	if n := nn.ClipGradients(all, 1); n != 0 {
		t.Fatalf("clipping untouched gradients reports norm %v", n)
	}
	noGrads("after eval forwards, clones and a clip")

	labels := []int{0, 1, 2, 3}
	step := func(params []*nn.Param, forward func(*tensor.Tensor, bool) *tensor.Tensor, backward func(*tensor.Tensor) *tensor.Tensor) {
		opt := nn.NewAdam(params, 0.01)
		opt.ZeroGrad()
		shared := m.ForwardShared(x, true)
		_, dlogits := nn.SoftmaxCrossEntropy(forward(shared, true), labels)
		m.Shared.Backward(backward(dlogits))
		opt.Step()
	}
	step(m.MainParams(), m.ForwardMainRest, m.MainRest.Backward)
	step(m.BinaryParams(), m.ForwardBinary, m.Binary.Backward)
	for _, p := range all {
		if p.Grad == nil || !p.Grad.SameShape(p.Value) {
			t.Fatalf("after a training step %s has no gradient of its shape", p.Name)
		}
	}
}
