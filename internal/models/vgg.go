package models

import (
	"fmt"

	"lcrs/internal/nn"
	"lcrs/internal/tensor"
)

// vgg16 builds the CIFAR-style VGG16 composite (about 59 MB full precision
// at WidthScale=1, matching Table I). The classifier is the compact
// 512-wide head used for small images rather than ImageNet's 4096-wide one.
// For 28x28 inputs the final pooling stage is skipped so the spatial extent
// never collapses below 1. It is the one definition of the architecture;
// see Build and BuildClient for the two ways it is instantiated.
func vgg16(cfg Config, g *tensor.RNG) *Composite {
	c64 := cfg.scaled(64)
	c128 := cfg.scaled(128)
	c256 := cfg.scaled(256)
	c512 := cfg.scaled(512)
	fcH := cfg.scaled(512)

	shared := newStack("vgg16.shared", cfg.InShape())
	shared.add(nn.NewConv2D("conv1_1", g, cfg.InC, c64, 3, 3, 1, 1)).
		add(nn.NewBatchNorm("bn1_1", c64)).
		add(nn.NewReLU("relu1_1"))

	m := &Composite{Name: "vgg16", Shared: shared.seq, Cfg: cfg}
	if g != nil { // a client build has no main branch
		main := newStack("vgg16.main", shared.cur)
		conv := func(idx string, inC, outC int) {
			main.add(nn.NewConv2D("conv"+idx, g, inC, outC, 3, 3, 1, 1)).
				add(nn.NewBatchNorm("bn"+idx, outC)).
				add(nn.NewReLU("relu" + idx))
		}
		pool := func(n int) {
			_, h, _ := main.chw()
			if h < 2 {
				return // input too small for this pooling stage (28x28 case)
			}
			main.add(nn.NewMaxPool2D(fmt.Sprintf("pool%d", n), 2, 2, 0))
		}
		conv("1_2", c64, c64)
		pool(1)
		conv("2_1", c64, c128)
		conv("2_2", c128, c128)
		pool(2)
		conv("3_1", c128, c256)
		conv("3_2", c256, c256)
		conv("3_3", c256, c256)
		pool(3)
		conv("4_1", c256, c512)
		conv("4_2", c512, c512)
		conv("4_3", c512, c512)
		pool(4)
		conv("5_1", c512, c512)
		conv("5_2", c512, c512)
		conv("5_3", c512, c512)
		pool(5)
		main.add(nn.NewFlatten("flat"))
		main.add(nn.NewLinear("fc1", g, main.features(), fcH)).
			add(nn.NewReLU("relu_fc1")).
			add(nn.NewDropout("drop_fc1", g, 0.5)).
			add(nn.NewLinear("fc2", g, fcH, cfg.Classes))
		m.MainRest = main.seq
	}

	// Binary branch: stride-2 binary conv pyramid plus one wide binary FC,
	// about 1/29 of the main branch in bytes.
	bin := newStack("vgg16.binary", shared.cur)
	bin.add(bconv("bconv1", g, c64, c128, 3, 3, 2, 1)).
		add(nn.NewBatchNorm("bbn1", c128)).
		add(bconv("bconv2", g, c128, c256, 3, 3, 2, 1)).
		add(nn.NewBatchNorm("bbn2", c256)).
		add(bconv("bconv3", g, c256, c512, 3, 3, 2, 1)).
		add(nn.NewBatchNorm("bbn3", c512)).
		add(nn.NewFlatten("bflat"))
	bfcH := cfg.scaled(1600)
	bin.add(blinear("bfc1", g, bin.features(), bfcH)).
		add(nn.NewBatchNorm("bbn4", bfcH)).
		add(nn.NewLinear("bout", g, bfcH, cfg.Classes))

	m.Binary = bin.seq
	return m
}
