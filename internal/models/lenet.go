package models

import (
	"lcrs/internal/nn"
	"lcrs/internal/tensor"
)

// LeNet builds the widened LeNet composite used in the paper's Table I
// (about 1.5-2 MB full precision at WidthScale=1). The shared prefix is
// conv1 + ReLU + pool; the binary branch mirrors the main branch's
// conv/fc structure with binarized interior layers and a float classifier.
func LeNet(cfg Config) *Composite { return leNet(cfg, tensor.NewRNG(cfg.Seed)) }

// leNet is the one definition of the architecture; see Build and BuildClient
// for the two ways it is instantiated.
func leNet(cfg Config, g *tensor.RNG) *Composite {
	c1 := cfg.scaled(20)
	c2 := cfg.scaled(50)
	fc1 := cfg.scaled(256)
	fc2 := cfg.scaled(84)

	shared := newStack("lenet.shared", cfg.InShape())
	shared.add(nn.NewConv2D("conv1", g, cfg.InC, c1, 5, 5, 1, 2)).
		add(nn.NewReLU("relu1")).
		add(nn.NewMaxPool2D("pool1", 2, 2, 0))

	m := &Composite{Name: "lenet", Shared: shared.seq, Cfg: cfg}
	if g != nil { // a client build has no main branch
		main := newStack("lenet.main", shared.cur)
		main.add(nn.NewConv2D("conv2", g, c1, c2, 5, 5, 1, 0)).
			add(nn.NewBatchNorm("bn2", c2)).
			add(nn.NewReLU("relu2")).
			add(nn.NewMaxPool2D("pool2", 2, 2, 0)).
			add(nn.NewFlatten("flat"))
		main.add(nn.NewLinear("fc1", g, main.features(), fc1)).
			add(nn.NewBatchNorm("bnfc1", fc1)).
			add(nn.NewReLU("relu3")).
			add(nn.NewLinear("fc2", g, fc1, fc2)).
			add(nn.NewBatchNorm("bnfc2", fc2)).
			add(nn.NewReLU("relu4")).
			add(nn.NewLinear("fc3", g, fc2, cfg.Classes))
		m.MainRest = main.seq
	}

	bin := newStack("lenet.binary", shared.cur)
	bin.add(bconv("bconv1", g, c1, c2, 5, 5, 1, 2)).
		add(nn.NewMaxPool2D("bpool1", 2, 2, 0)).
		add(nn.NewBatchNorm("bbn1", c2)).
		add(nn.NewFlatten("bflat"))
	bin.add(blinear("bfc1", g, bin.features(), fc1)).
		add(nn.NewBatchNorm("bbn2", fc1)).
		add(blinear("bfc2", g, fc1, fc2)).
		add(nn.NewBatchNorm("bbn3", fc2)).
		add(nn.NewLinear("bout", g, fc2, cfg.Classes))

	m.Binary = bin.seq
	return m
}
