package bench

import (
	"fmt"
	"time"

	"lcrs/internal/dataset"
	"lcrs/internal/edgesim"
	"lcrs/internal/exitpolicy"
	"lcrs/internal/models"
	"lcrs/internal/training"
)

// browserFramework models an existing in-browser DNN execution framework as
// a mobile-only executor with a relative speed factor over the baseline
// WASM profile: Keras.js runs plain JS kernels, TensorFlow.js and WebDNN
// use WebGL acceleration (WebDNN being the fastest per its own evaluation).
// All of them execute the full-precision model and must download it first.
type browserFramework struct {
	name  string
	speed float64
}

var browserFrameworks = []browserFramework{
	{name: "Keras.js", speed: 0.5},
	{name: "TensorFlow.js", speed: 2},
	{name: "WebDNN", speed: 3},
}

// Fig10 regenerates Figure 10: recognition latency in the China Mobile Web
// AR case (ResNet18 over the augmented logo dataset). LCRS-B is the
// binary-branch exit path, LCRS-M the collaborative path; the comparison
// frameworks execute the full model in the browser.
func (r *Runner) Fig10() error {
	arch := "resnet18"
	scale := r.Cfg.Scale
	if r.Cfg.Quick {
		arch = "lenet"
	}

	spec := dataset.DefaultLogoSpec()
	full := dataset.GenerateLogos(spec, r.Cfg.TrainSamples, r.Cfg.Seed)
	train, test := full.Split(0.8)
	cfg := models.Config{
		Classes: spec.Brands, InC: 3, InH: spec.H, InW: spec.W,
		WidthScale: scale, Seed: r.Cfg.Seed,
	}
	m, err := models.Build(arch, cfg)
	if err != nil {
		return err
	}
	_, err = training.Run(m, train, test, training.Options{
		Epochs: r.Cfg.Epochs, BatchSize: 32,
		MainLR: 1e-3, BinaryLR: 1e-3, ClipNorm: 5, Seed: r.Cfg.Seed,
	})
	if err != nil {
		return err
	}
	ev := training.EvaluateBranches(m, test, 32)
	tau, _ := exitpolicy.ScreenAccuracyPreserving(ev.Entropies, ev.BinaryCorrect, ev.MainCorrect)

	ref, err := buildFull(arch, cfg)
	if err != nil {
		return err
	}
	cost := r.costModel()
	rt, err := edgesim.NewRuntime(m, tau, cost)
	if err != nil {
		return err
	}
	rt.CostRef = ref

	n := r.Cfg.SessionSamples
	if n > test.Len() {
		n = test.Len()
	}
	st, err := rt.RunSession(test, n)
	if err != nil {
		return err
	}
	var exitTotal, collabTotal time.Duration
	var exits, collabs int
	for _, rec := range st.Records {
		if rec.Exited {
			exitTotal += rec.Total()
			exits++
		} else {
			collabTotal += rec.Total()
			collabs++
		}
	}

	r.printf("Figure 10: recognition latency in the Web AR case (%s over %d logo brands, exit rate %.0f%%)\n",
		arch, spec.Brands, st.ExitRate*100)
	header := []string{"Executor", "Latency(ms)", "Notes"}
	var rows [][]string
	if exits > 0 {
		rows = append(rows, []string{"LCRS-B", ms(exitTotal / time.Duration(exits)), "binary branch exit"})
	}
	if collabs > 0 {
		rows = append(rows, []string{"LCRS-M", ms(collabTotal / time.Duration(collabs)), "edge collaboration"})
	}
	mainFLOPs := ref.MainFLOPs()
	loadTime := cost.Link.DownTime(ref.MainSizeBytes())
	for _, fw := range browserFrameworks {
		prof := cost.Client
		prof.GFLOPS *= fw.speed
		total := loadTime + prof.ComputeTime(mainFLOPs)
		rows = append(rows, []string{fw.name, ms(total), "full model in browser"})
	}
	r.table(header, rows)
	fmt.Fprintln(r.Cfg.Out)
	return nil
}
