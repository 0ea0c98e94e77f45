// Command lcrs-train jointly trains an LCRS composite model (Algorithm 1)
// on one of the bundled synthetic datasets or the Web AR logo set, screens
// the entropy exit threshold, and writes a deploy pack: checkpoint, browser
// bundle, screened tau and a manifest under one content digest, ready for
// lcrs-edge -pack (and -watch-pack zero-downtime deploys).
//
// Usage:
//
//	lcrs-train -arch lenet -dataset mnist -out lenet-mnist.lcpk
//	lcrs-train -arch resnet18 -dataset logos -scale 0.25 -epochs 12 -out webar.lcpk
package main

import (
	"flag"
	"fmt"
	"os"

	"lcrs/internal/dataset"
	"lcrs/internal/exitpolicy"
	"lcrs/internal/modelio"
	"lcrs/internal/models"
	"lcrs/internal/training"
)

func main() {
	var (
		arch    = flag.String("arch", "lenet", "architecture: lenet, alexnet, resnet18, vgg16")
		dsName  = flag.String("dataset", "mnist", "dataset: mnist, fashion, cifar10, cifar100, logos")
		samples = flag.Int("samples", 800, "synthetic samples to generate")
		epochs  = flag.Int("epochs", 10, "training epochs")
		batch   = flag.Int("batch", 32, "minibatch size")
		scale   = flag.Float64("scale", 0.15, "width scale (1.0 = paper-size model)")
		seed    = flag.Int64("seed", 1, "seed for data, init and shuffling")
		out     = flag.String("out", "", "deploy pack (.lcpk) output path (required)")
		label   = flag.String("label", "", "free-form label stored in the pack manifest (default: arch-dataset)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "lcrs-train: -out is required")
		os.Exit(2)
	}

	var ds *dataset.Dataset
	var cfg models.Config
	if *dsName == "logos" {
		spec := dataset.DefaultLogoSpec()
		ds = dataset.GenerateLogos(spec, *samples, *seed)
		cfg = models.Config{Classes: spec.Brands, InC: 3, InH: spec.H, InW: spec.W}
	} else {
		spec, err := dataset.SpecByName(*dsName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lcrs-train:", err)
			os.Exit(2)
		}
		ds = dataset.Generate(spec, *samples, *seed)
		cfg = models.Config{Classes: spec.Classes, InC: spec.C, InH: spec.H, InW: spec.W}
	}
	cfg.WidthScale = *scale
	cfg.Seed = *seed

	m, err := models.Build(*arch, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcrs-train:", err)
		os.Exit(2)
	}
	train, test := ds.Split(0.8)
	fmt.Printf("training %s on %s: %d train / %d test samples, %d epochs\n",
		*arch, *dsName, train.Len(), test.Len(), *epochs)
	res, err := training.Run(m, train, test, training.Options{
		Epochs: *epochs, BatchSize: *batch,
		MainLR: 1e-3, BinaryLR: 1e-3, ClipNorm: 5, Seed: *seed,
		Log: os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcrs-train:", err)
		os.Exit(1)
	}

	ev := training.EvaluateBranches(m, test, *batch)
	tau, st := exitpolicy.ScreenAccuracyPreserving(ev.Entropies, ev.BinaryCorrect, ev.MainCorrect)
	fmt.Printf("main acc %.2f%% | binary acc %.2f%% | tau %.4f | exit rate %.0f%% | combined acc %.2f%%\n",
		res.MainAcc*100, res.BinaryAcc*100, tau, st.ExitRate*100, st.CombinedAccuracy*100)
	fmt.Printf("sizes: main %.2f MB, browser bundle %.3f MB\n",
		float64(m.MainSizeBytes())/(1<<20), float64(m.BinarySizeBytes())/(1<<20))

	if *label == "" {
		*label = *arch + "-" + *dsName
	}
	man := modelio.PackManifest{Arch: *arch, Config: cfg, Tau: tau, Label: *label}
	data, err := modelio.EncodePack(man, m)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcrs-train:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "lcrs-train:", err)
		os.Exit(1)
	}
	p, err := modelio.OpenPack(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcrs-train:", err)
		os.Exit(1)
	}
	fmt.Printf("deploy pack written to %s: version %s, %d bytes\n", *out, p.Version(), len(data))
}
