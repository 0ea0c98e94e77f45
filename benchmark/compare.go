package main

import (
	"fmt"
	"io"
)

// Verdicts of one (workload, end-to-end metric) pair.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares one metric of two runs. bound is the share of the base
// value by which the metric may get worse; spread is the larger of the two
// runs' round IQRs as a share of their medians (0 for an exact count). A
// difference inside the bound is "same" only when the spread is inside it
// too; otherwise the pair is unresolved.
func judge(base, cur, bound, spread float64, lowerIsBetter bool) string {
	worse := cur - base // in the metric's unit, positive = worse
	if !lowerIsBetter {
		worse = -worse
	}
	limit := bound * base
	switch {
	case worse > limit:
		return verdictWorse
	case -worse > limit:
		return verdictBetter
	case spread > bound:
		return verdictUnresolved
	default:
		return verdictSame
	}
}

func relSpread(m metricOut) float64 {
	if m.Median == 0 {
		return 0
	}
	return m.IQR / m.Median
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// results files and returns exit code 1 when any pair is worse or more ops
// failed. Bounds and directions come from the contract file.
func compareFiles(w io.Writer, specPath, basePath, curPath string) (int, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return 2, err
	}
	base, err := readResults(basePath)
	if err != nil {
		return 2, err
	}
	cur, err := readResults(curPath)
	if err != nil {
		return 2, err
	}
	if d := base.Host.differs(cur.Host); len(d) > 0 {
		fmt.Fprintf(w, "WARNING: the two runs differ in %v; timings are not comparable\n", d)
	}
	metrics := append([]specMetric(nil), spec.EndToEnd...)
	for _, d := range exactDefs {
		metrics = append(metrics, specMetric{Name: d.name, Unit: d.unit, Better: "lower", Bound: exactBounds[d.name]})
	}
	fmt.Fprintf(w, "%-13s %-24s %14s %14s %9s %6s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	code := 0
	var unresolved []string
	for _, bw := range base.Workloads {
		var cw *workloadOut
		for i := range cur.Workloads {
			if cur.Workloads[i].Name == bw.Name {
				cw = &cur.Workloads[i]
			}
		}
		if cw == nil {
			fmt.Fprintf(w, "%-13s missing from %s\n", bw.Name, curPath)
			code = 1
			continue
		}
		for _, m := range metrics {
			b, c := bw.EndToEnd[m.Name], cw.EndToEnd[m.Name]
			spread := relSpread(b)
			if s := relSpread(c); s > spread {
				spread = s
			}
			verdict := judge(b.Value, c.Value, m.Bound, spread, m.Better != "higher")
			ratio := "n/a"
			if b.Value != 0 {
				ratio = fmt.Sprintf("%.3f", c.Value/b.Value)
			}
			fmt.Fprintf(w, "%-13s %-24s %14.4f %14.4f %9s %5.0f%%  %s\n",
				bw.Name, m.Name, b.Value, c.Value, ratio, 100*m.Bound, verdict)
			switch verdict {
			case verdictWorse:
				code = 1
			case verdictUnresolved:
				unresolved = append(unresolved, fmt.Sprintf("%s/%s (round IQR %.1f%% of median, bound %.0f%%)",
					bw.Name, m.Name, 100*spread, 100*m.Bound))
			}
		}
	}
	for _, u := range unresolved {
		fmt.Fprintln(w, "unresolved:", u)
	}
	return code, nil
}
