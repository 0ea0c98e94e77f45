package bench

import (
	"fmt"
	"time"

	"lcrs/internal/baseline"
	"lcrs/internal/edgesim"
)

// lcrsSession trains (or fetches) the width-scaled model for (arch, ds),
// then runs an Algorithm 2 session whose latency accounting uses the
// full-scale cost reference — the pairing DESIGN.md documents for the
// latency experiments.
func (r *Runner) lcrsSession(arch, ds string, n int) (edgesim.SessionStats, error) {
	tm, err := r.train(arch, ds)
	if err != nil {
		return edgesim.SessionStats{}, err
	}
	ref, err := r.fullScale(arch)
	if err != nil {
		return edgesim.SessionStats{}, err
	}
	rt, err := edgesim.NewRuntime(tm.model, tm.tau, r.costModel())
	if err != nil {
		return edgesim.SessionStats{}, err
	}
	rt.CostRef = ref
	if n > tm.test.Len() {
		n = tm.test.Len()
	}
	return rt.RunSession(tm.test, n)
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.0f", float64(d)/float64(time.Millisecond))
}

// Fig6 regenerates Figure 6: average end-to-end latency as the number of
// samples grows. The shape to reproduce: near-stable averages (exit rates
// are fixed) with link-jitter fluctuations, settling as loading amortizes.
func (r *Runner) Fig6() error {
	ds := "cifar10"
	if r.Cfg.Quick {
		ds = "mnist"
	}
	r.printf("Figure 6: average latency (ms) vs number of samples (%s)\n", ds)
	steps := []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if r.Cfg.Quick {
		steps = []int{10, 20, 30, 40}
	}
	header := append([]string{"Network"}, func() []string {
		var h []string
		for _, s := range steps {
			h = append(h, fmt.Sprintf("n=%d", s))
		}
		return h
	}()...)
	var rows [][]string
	for _, arch := range r.nets() {
		row := []string{arch}
		for _, n := range steps {
			st, err := r.lcrsSession(arch, ds, n)
			if err != nil {
				return err
			}
			row = append(row, ms(st.AvgTotal))
		}
		rows = append(rows, row)
	}
	r.table(header, rows)
	return nil
}

// comparisonReports computes the four approaches' reports for one
// architecture at full scale, with LCRS's exit behaviour taken from the
// trained width-scaled model.
func (r *Runner) comparisonReports(arch, ds string) (map[string]baseline.Report, error) {
	ref, err := r.fullScale(arch)
	if err != nil {
		return nil, err
	}
	env := baseline.Env{Cost: r.costModel(), SessionSamples: 1}

	st, err := r.lcrsSession(arch, ds, r.Cfg.SessionSamples)
	if err != nil {
		return nil, err
	}
	// LCRS over a cold session, like the baselines: load once, then the
	// session's per-sample averages.
	lcrs := baseline.LCRSReport(st, ref.BinarySizeBytes())
	lcrs.AvgTotal = lcrs.ModelLoad + lcrs.PerSampleCompute + lcrs.PerSampleComm
	lcrs.AvgComm = lcrs.ModelLoad + lcrs.PerSampleComm

	mo, err := baseline.MobileOnly(ref, env)
	if err != nil {
		return nil, err
	}
	ns, err := baseline.Neurosurgeon(ref, env)
	if err != nil {
		return nil, err
	}
	ed, err := baseline.Edgent(ref, env, baseline.DefaultEdgentOptions())
	if err != nil {
		return nil, err
	}
	return map[string]baseline.Report{
		"LCRS": lcrs, "Neurosurgeon": ns, "Edgent": ed, "Mobile-only": mo,
	}, nil
}

var comparisonOrder = []string{"LCRS", "Neurosurgeon", "Edgent", "Mobile-only"}

// Table2 regenerates Table II: average end-to-end latency per approach.
func (r *Runner) Table2() error {
	return r.comparisonTable("Table II: average latency (ms) executing on mobile web browser",
		func(rep baseline.Report) time.Duration { return rep.AvgTotal })
}

// Table3 regenerates Table III: average communication cost per approach
// (model loading + intermediate/initial-task transfers).
func (r *Runner) Table3() error {
	return r.comparisonTable("Table III: average communication costs (ms)",
		func(rep baseline.Report) time.Duration { return rep.AvgComm })
}

func (r *Runner) comparisonTable(title string, metric func(baseline.Report) time.Duration) error {
	ds := "cifar10"
	if r.Cfg.Quick {
		ds = "mnist"
	}
	r.printf("%s (%s)\n", title, ds)
	header := append([]string{"Network"}, comparisonOrder...)
	var rows [][]string
	for _, arch := range r.nets() {
		reports, err := r.comparisonReports(arch, ds)
		if err != nil {
			return err
		}
		row := []string{arch}
		for _, name := range comparisonOrder {
			row = append(row, ms(metric(reports[name])))
		}
		rows = append(rows, row)
	}
	r.table(header, rows)
	return nil
}

// Fig7 regenerates Figure 7: the bytes each approach must place on the
// mobile web browser for CIFAR10-shaped models.
func (r *Runner) Fig7() error {
	r.printf("Figure 7: model size on the mobile web browser, CIFAR10 (MB)\n")
	header := []string{"Network", "LCRS", "Neurosurgeon", "Edgent", "Mobile-only"}
	env := baseline.Env{Cost: r.costModel(), SessionSamples: 1}
	var rows [][]string
	for _, arch := range r.nets() {
		ref, err := r.fullScale(arch)
		if err != nil {
			return err
		}
		ns, err := baseline.Neurosurgeon(ref, env)
		if err != nil {
			return err
		}
		ed, err := baseline.Edgent(ref, env, baseline.DefaultEdgentOptions())
		if err != nil {
			return err
		}
		mb := func(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }
		rows = append(rows, []string{arch,
			mb(ref.BinarySizeBytes()), mb(ns.ClientModelBytes), mb(ed.ClientModelBytes), mb(ref.MainSizeBytes()),
		})
	}
	r.table(header, rows)
	return nil
}
