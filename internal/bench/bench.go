// Package bench regenerates every table and figure of the paper's
// evaluation (Section V): Table I training results, Figure 4 branch
// structure sweep, Figure 5 training curves, Figure 6 latency vs sample
// count, Tables II/III latency and communication comparisons, Figure 7
// browser-side model sizes, and Figure 10 Web AR recognition latency.
//
// Accuracy-bearing experiments train width-scaled models on the synthetic
// datasets (full-scale training is not feasible in pure Go); size- and
// latency-bearing numbers always come from full-scale (WidthScale=1)
// architecture builds over the calibrated cost model. EXPERIMENTS.md
// records paper-vs-measured values for every experiment.
package bench

import (
	"fmt"
	"io"
	"strings"

	"lcrs/internal/dataset"
	"lcrs/internal/device"
	"lcrs/internal/edgesim"
	"lcrs/internal/exitpolicy"
	"lcrs/internal/models"
	"lcrs/internal/netsim"
	"lcrs/internal/training"
)

// Config scopes an experiment run.
type Config struct {
	// Out receives the rendered tables/series.
	Out io.Writer
	// Scale is the WidthScale for trained models.
	Scale float64
	// TrainSamples is the synthetic dataset size per network/dataset pair.
	TrainSamples int
	// Epochs is the joint-training epoch count.
	Epochs int
	// SessionSamples is the paper's "100 random samples" session length.
	SessionSamples int
	// Seed drives data generation, initialization and jitter.
	Seed int64
	// Quick restricts sweeps to a small subset so the full suite runs in
	// CI time; the lcrs-bench binary defaults to the full sweep.
	Quick bool
}

// DefaultConfig returns the full-fidelity settings used by lcrs-bench,
// sized so the whole suite completes in tens of minutes on one CPU core.
func DefaultConfig(out io.Writer) Config {
	return Config{
		Out: out, Scale: 0.12, TrainSamples: 600, Epochs: 8,
		SessionSamples: 100, Seed: 1,
	}
}

// QuickConfig returns settings that complete the whole suite in roughly a
// minute, for tests and smoke runs.
func QuickConfig(out io.Writer) Config {
	return Config{
		Out: out, Scale: 0.08, TrainSamples: 300, Epochs: 5,
		SessionSamples: 40, Seed: 1, Quick: true,
	}
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the table/figure identifier ("table1", "fig6", ...).
	ID string
	// Title describes what the paper reports.
	Title string
	// Run renders the experiment to cfg.Out.
	Run func(r *Runner) error
}

// All lists the experiments in the paper's order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table I: training results (accuracy, tau, exit rate, model sizes)", Run: (*Runner).Table1},
		{ID: "fig4", Title: "Figure 4: binary branch structure vs accuracy and size", Run: (*Runner).Fig4},
		{ID: "fig5", Title: "Figure 5: training curves of the binary branch", Run: (*Runner).Fig5},
		{ID: "fig6", Title: "Figure 6: average latency vs number of samples", Run: (*Runner).Fig6},
		{ID: "table2", Title: "Table II: average latency on the mobile web browser", Run: (*Runner).Table2},
		{ID: "table3", Title: "Table III: average communication costs", Run: (*Runner).Table3},
		{ID: "fig7", Title: "Figure 7: browser-side model size per approach (CIFAR10)", Run: (*Runner).Fig7},
		{ID: "fig10", Title: "Figure 10: Web AR recognition latency (China Mobile case)", Run: (*Runner).Fig10},
	}
}

// ByID finds an experiment among the paper's tables/figures and the
// ablations.
func ByID(id string) (Experiment, error) {
	for _, e := range append(All(), Ablations()...) {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q; have %s", id, strings.Join(IDs(), ", "))
}

// IDs lists every experiment identifier, tables/figures first.
func IDs() []string {
	var ids []string
	for _, e := range append(All(), Ablations()...) {
		ids = append(ids, e.ID)
	}
	return ids
}

// Runner caches trained models across experiments in one invocation.
type Runner struct {
	Cfg     Config
	trained map[string]*trainedModel
	costRef map[string]*models.Composite
}

// NewRunner builds a runner for cfg.
func NewRunner(cfg Config) *Runner {
	return &Runner{Cfg: cfg, trained: map[string]*trainedModel{}, costRef: map[string]*models.Composite{}}
}

// trainedModel is one (architecture, dataset) training artifact.
type trainedModel struct {
	model *models.Composite
	res   *training.Result
	ev    training.Evaluation
	tau   float64
	exit  exitpolicy.Stats
	test  *dataset.Dataset
}

// nets returns the architecture sweep honouring Quick mode.
func (r *Runner) nets() []string {
	if r.Cfg.Quick {
		return []string{"lenet"}
	}
	return models.Names()
}

// datasets returns the dataset sweep honouring Quick mode.
func (r *Runner) datasets() []string {
	if r.Cfg.Quick {
		return []string{"mnist", "cifar10"}
	}
	return []string{"mnist", "fashion", "cifar10", "cifar100"}
}

// modelConfig derives the model configuration for a dataset spec.
func (r *Runner) modelConfig(spec dataset.Spec, scale float64) models.Config {
	return models.Config{
		Classes: spec.Classes, InC: spec.C, InH: spec.H, InW: spec.W,
		WidthScale: scale, Seed: r.Cfg.Seed,
	}
}

// train returns the cached or freshly trained model for (arch, dsName),
// including the screened exit threshold.
func (r *Runner) train(arch, dsName string) (*trainedModel, error) {
	key := arch + "/" + dsName
	if tm, ok := r.trained[key]; ok {
		return tm, nil
	}
	spec, err := dataset.SpecByName(dsName)
	if err != nil {
		return nil, err
	}
	m, err := models.Build(arch, r.modelConfig(spec, r.Cfg.Scale))
	if err != nil {
		return nil, err
	}
	// Many-class datasets need proportionally more samples: with
	// TrainSamples=600, CIFAR100 would see 6 samples per class.
	n := r.Cfg.TrainSamples
	if min := 15 * spec.Classes; n < min {
		n = min
	}
	full := dataset.Generate(spec, n, r.Cfg.Seed)
	train, test := full.Split(0.8)
	opts := training.Options{
		Epochs: r.Cfg.Epochs, BatchSize: 32,
		MainLR: 1e-3, BinaryLR: 1e-3, ClipNorm: 5, Seed: r.Cfg.Seed,
	}
	res, err := training.Run(m, train, test, opts)
	if err != nil {
		return nil, fmt.Errorf("bench: train %s: %w", key, err)
	}
	ev := training.EvaluateBranches(m, test, 32)
	tau, exit := exitpolicy.ScreenAccuracyPreserving(ev.Entropies, ev.BinaryCorrect, ev.MainCorrect)
	tm := &trainedModel{model: m, res: res, ev: ev, tau: tau, exit: exit, test: test}
	r.trained[key] = tm
	return tm, nil
}

// fullScale returns (cached) the WidthScale=1 build of an architecture on
// the CIFAR10-shaped domain, the cost reference for latency experiments.
func (r *Runner) fullScale(arch string) (*models.Composite, error) {
	if m, ok := r.costRef[arch]; ok {
		return m, nil
	}
	m, err := models.Build(arch, models.Config{
		Classes: 10, InC: 3, InH: 32, InW: 32, WidthScale: 1, Seed: r.Cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	r.costRef[arch] = m
	return m, nil
}

// costModel returns the paper's evaluation environment with reseeded
// jitter for reproducibility.
func (r *Runner) costModel() edgesim.CostModel {
	link := netsim.PaperFourG()
	link.Seed(r.Cfg.Seed)
	return edgesim.CostModel{Client: device.MobileBrowser(), Server: device.EdgeServer(), Link: link}
}

// table renders rows with aligned columns to the runner's output.
func (r *Runner) table(header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		fmt.Fprintln(r.Cfg.Out, strings.TrimRight(b.String(), " "))
	}
	line(header)
	var rule []string
	for _, w := range widths {
		rule = append(rule, strings.Repeat("-", w))
	}
	line(rule)
	for _, row := range rows {
		line(row)
	}
}

func (r *Runner) printf(format string, args ...any) {
	fmt.Fprintf(r.Cfg.Out, format, args...)
}

// mustSpec returns a dataset spec that is known to exist; it panics on
// programmer error (unknown name in a sweep list).
func mustSpec(name string) dataset.Spec {
	spec, err := dataset.SpecByName(name)
	if err != nil {
		panic(err)
	}
	return spec
}

// buildFull builds a full-scale model for size accounting. Results are not
// cached: full-scale parameter tensors are large and only their byte counts
// are read, so the build is dropped after use.
func buildFull(arch string, cfg models.Config) (*models.Composite, error) {
	cfg.WidthScale = 1
	return models.Build(arch, cfg)
}
