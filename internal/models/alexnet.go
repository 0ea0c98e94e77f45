package models

import (
	"lcrs/internal/nn"
	"lcrs/internal/tensor"
)

// AlexNet builds the small-image AlexNet composite (about 90 MB full
// precision at WidthScale=1, matching Table I). Convolution kernels are
// 3x3 because inputs are 28x28/32x32, per the paper's note that channel
// parameters were adjusted for the small datasets.
func AlexNet(cfg Config) *Composite { return alexNet(cfg, tensor.NewRNG(cfg.Seed)) }

// alexNet is the one definition of the architecture; see Build and BuildClient
// for the two ways it is instantiated.
func alexNet(cfg Config, g *tensor.RNG) *Composite {
	c1 := cfg.scaled(64)
	c2 := cfg.scaled(192)
	c3 := cfg.scaled(384)
	c4 := cfg.scaled(256)
	c5 := cfg.scaled(256)
	fcH := cfg.scaled(3000)

	shared := newStack("alexnet.shared", cfg.InShape())
	shared.add(nn.NewConv2D("conv1", g, cfg.InC, c1, 3, 3, 1, 1)).
		add(nn.NewReLU("relu1")).
		add(nn.NewMaxPool2D("pool1", 2, 2, 0))

	m := &Composite{Name: "alexnet", Shared: shared.seq, Cfg: cfg}
	if g != nil { // a client build has no main branch
		main := newStack("alexnet.main", shared.cur)
		main.add(nn.NewConv2D("conv2", g, c1, c2, 3, 3, 1, 1)).
			add(nn.NewBatchNorm("bn2", c2)).
			add(nn.NewReLU("relu2")).
			add(nn.NewMaxPool2D("pool2", 2, 2, 0)).
			add(nn.NewConv2D("conv3", g, c2, c3, 3, 3, 1, 1)).
			add(nn.NewBatchNorm("bn3", c3)).
			add(nn.NewReLU("relu3")).
			add(nn.NewConv2D("conv4", g, c3, c4, 3, 3, 1, 1)).
			add(nn.NewBatchNorm("bn4", c4)).
			add(nn.NewReLU("relu4")).
			add(nn.NewConv2D("conv5", g, c4, c5, 3, 3, 1, 1)).
			add(nn.NewBatchNorm("bn5", c5)).
			add(nn.NewReLU("relu5")).
			add(nn.NewMaxPool2D("pool5", 2, 2, 0)).
			add(nn.NewFlatten("flat"))
		main.add(nn.NewLinear("fc6", g, main.features(), fcH)).
			add(nn.NewBatchNorm("bn6", fcH)).
			add(nn.NewReLU("relu6")).
			add(nn.NewDropout("drop6", g, 0.5)).
			add(nn.NewLinear("fc7", g, fcH, fcH)).
			add(nn.NewReLU("relu7")).
			add(nn.NewDropout("drop7", g, 0.5)).
			add(nn.NewLinear("fc8", g, fcH, cfg.Classes))
		m.MainRest = main.seq
	}

	// Binary branch: two binary convolutions and two binary FC layers, the
	// deepest point on the paper's Figure 4 frontier that still trains, at
	// roughly 1/30 of the main branch's bytes.
	bin := newStack("alexnet.binary", shared.cur)
	bin.add(bconv("bconv1", g, c1, c2, 3, 3, 1, 1)).
		add(nn.NewMaxPool2D("bpool1", 2, 2, 0)).
		add(nn.NewBatchNorm("bbn1", c2)).
		add(bconv("bconv2", g, c2, c4, 3, 3, 1, 1)).
		add(nn.NewMaxPool2D("bpool2", 2, 2, 0)).
		add(nn.NewBatchNorm("bbn2", c4)).
		add(nn.NewFlatten("bflat"))
	bin.add(blinear("bfc1", g, bin.features(), fcH)).
		add(nn.NewBatchNorm("bbn3", fcH)).
		add(blinear("bfc2", g, fcH, fcH)).
		add(nn.NewBatchNorm("bbn4", fcH)).
		add(nn.NewLinear("bout", g, fcH, cfg.Classes))

	m.Binary = bin.seq
	return m
}
