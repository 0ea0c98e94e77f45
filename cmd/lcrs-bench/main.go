// Command lcrs-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	lcrs-bench                      # run every experiment at full fidelity
//	lcrs-bench -exp table2,fig7    # run a subset
//	lcrs-bench -quick              # fast smoke run (small models, subsets)
//
// Output is plain text tables on stdout; see EXPERIMENTS.md for the
// paper-vs-measured comparison of a recorded full run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lcrs/internal/bench"
)

func main() {
	var (
		exps    = flag.String("exp", "all", "comma-separated experiment ids ("+strings.Join(bench.IDs(), ", ")+"), 'all' (tables+figures), 'ablations', or 'everything'")
		quick   = flag.Bool("quick", false, "small models and reduced sweeps (about a minute)")
		scale   = flag.Float64("scale", 0, "override trained-model width scale")
		samples = flag.Int("samples", 0, "override training samples per dataset")
		epochs  = flag.Int("epochs", 0, "override training epochs")
		session = flag.Int("session", 0, "override session sample count (paper: 100)")
		seed    = flag.Int64("seed", 1, "experiment seed")
		list    = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range append(bench.All(), bench.Ablations()...) {
			fmt.Printf("%-22s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := bench.DefaultConfig(os.Stdout)
	if *quick {
		cfg = bench.QuickConfig(os.Stdout)
	}
	cfg.Seed = *seed
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *samples > 0 {
		cfg.TrainSamples = *samples
	}
	if *epochs > 0 {
		cfg.Epochs = *epochs
	}
	if *session > 0 {
		cfg.SessionSamples = *session
	}

	var selected []bench.Experiment
	switch *exps {
	case "all":
		selected = bench.All()
	case "ablations":
		selected = bench.Ablations()
	case "everything":
		selected = append(bench.All(), bench.Ablations()...)
	default:
		for _, id := range strings.Split(*exps, ",") {
			e, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	runner := bench.NewRunner(cfg)
	for i, e := range selected {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(runner); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
