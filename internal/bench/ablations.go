package bench

import (
	"fmt"

	"lcrs/internal/dataset"
	"lcrs/internal/edgesim"
	"lcrs/internal/exitpolicy"
	"lcrs/internal/models"
	"lcrs/internal/netsim"
	"lcrs/internal/training"
)

// Ablations lists the design-choice experiments from the paper's §IV-D
// discussion and DESIGN.md §6, beyond the headline tables and figures.
func Ablations() []Experiment {
	return append([]Experiment{
		{ID: "ablation-location", Title: "Binary branch location sweep (§IV-D2)", Run: (*Runner).AblationLocation},
		{ID: "ablation-branches", Title: "One vs two binary branches (§IV-D1)", Run: (*Runner).AblationBranches},
		{ID: "ablation-tau", Title: "Exit threshold frontier (accuracy vs exit rate vs latency)", Run: (*Runner).AblationTau},
		{ID: "ablation-links", Title: "LCRS latency across link profiles", Run: (*Runner).AblationLinks},
		{ID: "offload-bytes", Title: "Offload wire codec: payload bytes vs accuracy vs latency", Run: (*Runner).OffloadBytes},
	}, moreAblations()...)
}

// AblationLocation reproduces the §IV-D2 argument: attaching the binary
// branch after a deeper convolutional layer buys a little accuracy but
// inflates the intermediate transfer and the browser-side float prefix, so
// expected latency rises — conv1 is the right attachment point.
func (r *Runner) AblationLocation() error {
	ds := "cifar10"
	if r.Cfg.Quick {
		ds = "mnist"
	}
	spec := mustSpec(ds)
	maxLoc := 4
	if r.Cfg.Quick {
		maxLoc = 2
	}
	full := dataset.Generate(spec, r.Cfg.TrainSamples, r.Cfg.Seed)
	train, test := full.Split(0.8)
	cm := r.costModel()

	r.printf("Binary branch location sweep on AlexNet (%s)\n", ds)
	header := []string{"After conv", "B_Acc(%)", "Exit(%)", "Intermediate(KB)", "Bundle(MB)", "E[latency](ms)"}
	var rows [][]string
	for loc := 1; loc <= maxLoc; loc++ {
		m, err := models.AlexNetBranchAt(r.modelConfig(spec, r.Cfg.Scale), loc)
		if err != nil {
			return err
		}
		res, err := training.Run(m, train, test, training.Options{
			Epochs: r.Cfg.Epochs, BatchSize: 32,
			MainLR: 1e-3, BinaryLR: 1e-3, ClipNorm: 5, Seed: r.Cfg.Seed,
		})
		if err != nil {
			return err
		}
		ev := training.EvaluateBranches(m, test, 32)
		_, st := exitpolicy.ScreenAccuracyPreserving(ev.Entropies, ev.BinaryCorrect, ev.MainCorrect)

		ref, err := models.AlexNetBranchAt(r.modelConfig(spec, 1), loc)
		if err != nil {
			return err
		}
		bp := edgesim.BranchPointForComposite(ref, st.ExitRate)
		exp := edgesim.ExpectedLatency(bp, cm)
		rows = append(rows, []string{
			fmt.Sprint(loc),
			fmt.Sprintf("%.2f", res.BinaryAcc*100),
			fmt.Sprintf("%.0f", st.ExitRate*100),
			fmt.Sprintf("%.0f", float64(bp.IntermediateBytes)/1024),
			fmt.Sprintf("%.2f", float64(bp.ClientModelBytes)/(1<<20)),
			ms(exp),
		})
	}
	r.table(header, rows)
	return nil
}

// AblationBranches reproduces the §IV-D1 argument with the closed-form
// expectations: a second binary branch adds client compute and a larger
// intermediate transfer but only a small exit-rate lift, so
// E[two-branch] - E[one-branch] > 0 across realistic lift assumptions.
func (r *Runner) AblationBranches() error {
	cm := r.costModel()
	ref1, err := models.AlexNetBranchAt(models.Config{
		Classes: 10, InC: 3, InH: 32, InW: 32, WidthScale: 1, Seed: r.Cfg.Seed,
	}, 1)
	if err != nil {
		return err
	}
	ref2, err := models.AlexNetBranchAt(models.Config{
		Classes: 10, InC: 3, InH: 32, InW: 32, WidthScale: 1, Seed: r.Cfg.Seed,
	}, 2)
	if err != nil {
		return err
	}

	r.printf("One vs two binary branches on AlexNet (expected per-sample latency, full scale)\n")
	header := []string{"p1 exit", "p2 lift", "E[one](ms)", "E[two](ms)", "Delta(ms)"}
	var rows [][]string
	for _, p1 := range []float64{0.6, 0.75, 0.9} {
		for _, lift := range []float64{0.02, 0.05, 0.10} {
			one := edgesim.BranchPointForComposite(ref1, p1)
			second := edgesim.BranchPointForComposite(ref2, lift/(1-p1))
			eOne := edgesim.ExpectedLatency(one, cm)
			eTwo := edgesim.ExpectedLatencyTwoBranch(one, second, cm)
			rows = append(rows, []string{
				fmt.Sprintf("%.0f%%", p1*100),
				fmt.Sprintf("+%.0f%%", lift*100),
				ms(eOne), ms(eTwo), ms(eTwo - eOne),
			})
		}
	}
	r.table(header, rows)
	r.printf("Positive delta reproduces the paper's conclusion: one branch after conv1.\n")
	return nil
}

// AblationTau sweeps the exit threshold over a trained model, tracing the
// exit-rate / accuracy / latency frontier that screening navigates.
func (r *Runner) AblationTau() error {
	arch, ds := "lenet", "mnist"
	if !r.Cfg.Quick {
		ds = "cifar10"
	}
	tm, err := r.train(arch, ds)
	if err != nil {
		return err
	}
	ref, err := r.fullScale(arch)
	if err != nil {
		return err
	}
	cm := r.costModel()

	r.printf("Exit threshold frontier (%s-%s)\n", arch, ds)
	header := []string{"Tau", "Exit(%)", "ExitAcc(%)", "CombinedAcc(%)", "E[latency](ms)"}
	var rows [][]string
	for _, tau := range []float64{0, 0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0} {
		st := exitpolicy.Evaluate(tau, tm.ev.Entropies, tm.ev.BinaryCorrect, tm.ev.MainCorrect)
		bp := edgesim.BranchPointForComposite(ref, st.ExitRate)
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", tau),
			fmt.Sprintf("%.0f", st.ExitRate*100),
			fmt.Sprintf("%.1f", st.ExitAccuracy*100),
			fmt.Sprintf("%.1f", st.CombinedAccuracy*100),
			ms(edgesim.ExpectedLatency(bp, cm)),
		})
	}
	r.table(header, rows)
	return nil
}

// AblationLinks runs the same LCRS session across link profiles, showing
// how the collaborative design degrades gracefully as the network worsens.
func (r *Runner) AblationLinks() error {
	arch, ds := "lenet", "mnist"
	if !r.Cfg.Quick {
		arch = "alexnet"
		ds = "cifar10"
	}
	tm, err := r.train(arch, ds)
	if err != nil {
		return err
	}
	ref, err := r.fullScale(arch)
	if err != nil {
		return err
	}

	r.printf("LCRS session latency across links (%s-%s)\n", arch, ds)
	header := []string{"Link", "ModelLoad(ms)", "AvgTotal(ms)", "AvgComm(ms)"}
	var rows [][]string
	for _, link := range []*netsim.Link{netsim.ThreeG(), netsim.FourG(), netsim.PaperFourG(), netsim.WiFi()} {
		link.Seed(r.Cfg.Seed)
		cm := r.costModel()
		cm.Link = link
		rt, err := edgesim.NewRuntime(tm.model, tm.tau, cm)
		if err != nil {
			return err
		}
		rt.CostRef = ref
		n := r.Cfg.SessionSamples
		if n > tm.test.Len() {
			n = tm.test.Len()
		}
		st, err := rt.RunSession(tm.test, n)
		if err != nil {
			return err
		}
		rows = append(rows, []string{link.Name, ms(st.ModelLoad), ms(st.AvgTotal), ms(st.AvgComm)})
	}
	r.table(header, rows)
	return nil
}
