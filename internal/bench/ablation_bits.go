package bench

import (
	"fmt"

	"lcrs/internal/dataset"
	"lcrs/internal/models"
	"lcrs/internal/nn"
	"lcrs/internal/tensor"
	"lcrs/internal/training"
)

// AblationBits sweeps the branch's weight precision from the paper's 1 bit
// up to 8 bits (plus a float32 reference), mapping the accuracy-vs-bytes
// frontier the binary choice sits on — the generalization the paper's
// conclusion points toward.
func (r *Runner) AblationBits() error {
	ds := "fashion"
	if r.Cfg.Quick {
		ds = "mnist"
	}
	spec := mustSpec(ds)
	full := dataset.Generate(spec, r.Cfg.TrainSamples, r.Cfg.Seed)
	train, test := full.Split(0.8)

	r.printf("Branch weight precision sweep (LeNet-style branch, %s)\n", ds)
	header := []string{"Bits", "B_Acc(%)", "Branch bytes (full scale)", "vs float32"}
	var rows [][]string
	bitSweep := []int{1, 2, 4, 8, 32}
	if r.Cfg.Quick {
		bitSweep = []int{1, 4, 32}
	}
	for _, bits := range bitSweep {
		m := quantLeNet(r.modelConfig(spec, r.Cfg.Scale), bits)
		res, err := training.Run(m, train, test, training.Options{
			Epochs: r.Cfg.Epochs, BatchSize: 32,
			MainLR: 1e-3, BinaryLR: 1e-3, ClipNorm: 5, Seed: r.Cfg.Seed,
		})
		if err != nil {
			return err
		}
		ref := quantLeNet(r.modelConfig(spec, 1), bits)
		refFloat := quantLeNet(r.modelConfig(spec, 1), 32)
		label := fmt.Sprint(bits)
		if bits == 32 {
			label = "float32"
		}
		rows = append(rows, []string{
			label,
			fmt.Sprintf("%.2f", res.BinaryAcc*100),
			fmt.Sprint(ref.BinarySizeBytes()),
			fmt.Sprintf("%.1fx", float64(refFloat.BinarySizeBytes())/float64(ref.BinarySizeBytes())),
		})
	}
	r.table(header, rows)
	return nil
}

// quantLeNet builds a LeNet composite whose side branch uses k-bit
// quantized weights (bits=32 keeps float layers, the reference point).
func quantLeNet(cfg models.Config, bits int) *models.Composite {
	m := models.LeNet(cfg)
	g := tensor.NewRNG(cfg.Seed + 500)

	sharedOut := m.SharedOutShape()
	c1 := sharedOut[0]
	c2 := scaled(cfg, 50)
	fc1 := scaled(cfg, 256)
	fc2 := scaled(cfg, 84)

	branch := nn.NewSequential("lenet.qbranch")
	cur := sharedOut
	addLayer := func(l nn.Layer) {
		branch.Append(l)
		cur = l.OutShape(cur)
	}
	if bits == 32 {
		addLayer(nn.NewConv2D("qconv1", g, c1, c2, 5, 5, 1, 2))
	} else {
		addLayer(newQuantConv2D("qconv1", g, bits, c1, c2, 5, 5, 1, 2))
	}
	addLayer(nn.NewMaxPool2D("qpool1", 2, 2, 0))
	addLayer(nn.NewBatchNorm("qbn1", c2))
	addLayer(nn.NewFlatten("qflat"))
	features := cur[0]
	if bits == 32 {
		addLayer(nn.NewLinear("qfc1", g, features, fc1))
	} else {
		addLayer(newQuantLinear("qfc1", g, bits, features, fc1))
	}
	addLayer(nn.NewBatchNorm("qbn2", fc1))
	addLayer(nn.NewLinear("qout", g, fc1, fc2))
	addLayer(nn.NewReLU("qrelu"))
	addLayer(nn.NewLinear("qcls", g, fc2, cfg.Classes))

	m.Binary = branch
	return m
}

// scaled mirrors models.Config scaling for branch widths built outside the
// models package.
func scaled(cfg models.Config, ch int) int {
	s := cfg.WidthScale
	if s == 0 {
		s = 1
	}
	n := int(float64(ch) * s)
	if n < 4 {
		n = 4
	}
	return n
}
