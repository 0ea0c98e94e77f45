package models

import (
	"fmt"

	"lcrs/internal/nn"
	"lcrs/internal/tensor"
)

// basicBlock builds a ResNet basic block: two 3x3 convolutions with batch
// norm, a projection shortcut when the shape changes, and a final ReLU
// (implemented by nn.Residual).
func basicBlock(name string, g *tensor.RNG, inC, outC, stride int) *nn.Residual {
	body := nn.NewSequential(name+".body",
		nn.NewConv2D(name+".conv1", g, inC, outC, 3, 3, stride, 1),
		nn.NewBatchNorm(name+".bn1", outC),
		nn.NewReLU(name+".relu1"),
		nn.NewConv2D(name+".conv2", g, outC, outC, 3, 3, 1, 1),
		nn.NewBatchNorm(name+".bn2", outC),
	)
	var shortcut *nn.Sequential
	if stride != 1 || inC != outC {
		shortcut = nn.NewSequential(name+".shortcut",
			nn.NewConv2D(name+".proj", g, inC, outC, 1, 1, stride, 0),
			nn.NewBatchNorm(name+".projbn", outC),
		)
	}
	return nn.NewResidual(name, body, shortcut)
}

// ResNet18 builds the CIFAR-style ResNet18 composite (about 44 MB full
// precision at WidthScale=1, matching Table I's 43.7 MB).
func ResNet18(cfg Config) *Composite { return resNet18(cfg, tensor.NewRNG(cfg.Seed)) }

// resNet18 is the one definition of the architecture; see Build and BuildClient
// for the two ways it is instantiated.
func resNet18(cfg Config, g *tensor.RNG) *Composite {
	w := []int{cfg.scaled(64), cfg.scaled(128), cfg.scaled(256), cfg.scaled(512)}

	shared := newStack("resnet18.shared", cfg.InShape())
	shared.add(nn.NewConv2D("conv1", g, cfg.InC, w[0], 3, 3, 1, 1)).
		add(nn.NewBatchNorm("bn1", w[0])).
		add(nn.NewReLU("relu1"))

	m := &Composite{Name: "resnet18", Shared: shared.seq, Cfg: cfg}
	if g != nil { // a client build has no main branch
		main := newStack("resnet18.main", shared.cur)
		inC := w[0]
		for stage, ch := range w {
			stride := 2
			if stage == 0 {
				stride = 1
			}
			main.add(basicBlock(fmt.Sprintf("s%d.b0", stage+1), g, inC, ch, stride))
			main.add(basicBlock(fmt.Sprintf("s%d.b1", stage+1), g, ch, ch, 1))
			inC = ch
		}
		_, h, _ := main.chw()
		main.add(nn.NewAvgPool2D("gap", h, h)).
			add(nn.NewFlatten("flat"))
		main.add(nn.NewLinear("fc", g, main.features(), cfg.Classes))
		m.MainRest = main.seq
	}

	// Binary branch: a stride-2 pyramid of binary convolutions plus one
	// large binary FC, sized to about 1/28 of the main branch.
	bin := newStack("resnet18.binary", shared.cur)
	bin.add(bconv("bconv1", g, w[0], w[1], 3, 3, 2, 1)).
		add(nn.NewBatchNorm("bbn1", w[1])).
		add(bconv("bconv2", g, w[1], w[2], 3, 3, 2, 1)).
		add(nn.NewBatchNorm("bbn2", w[2])).
		add(bconv("bconv3", g, w[2], w[3], 3, 3, 2, 1)).
		add(nn.NewBatchNorm("bbn3", w[3])).
		add(nn.NewFlatten("bflat"))
	bfcH := cfg.scaled(1280)
	bin.add(blinear("bfc1", g, bin.features(), bfcH)).
		add(nn.NewBatchNorm("bbn4", bfcH)).
		add(nn.NewLinear("bout", g, bfcH, cfg.Classes))

	m.Binary = bin.seq
	return m
}
