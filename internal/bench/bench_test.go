package bench

import (
	"strings"
	"testing"

	"lcrs/internal/models"
)

// quickConfig is the smallest setting that still exercises every code
// path, writing to its own output buffer.
func quickConfig() Config {
	cfg := QuickConfig(&strings.Builder{})
	cfg.TrainSamples = 200
	cfg.Epochs = 3
	cfg.SessionSamples = 20
	return cfg
}

// quickTrained and quickCostRef are the model caches every quickRunner
// shares, the way one lcrs-bench process shares them across experiments:
// each (arch, dataset) pair trains once per test binary.
var (
	quickTrained = map[string]*trainedModel{}
	quickCostRef = map[string]*models.Composite{}
)

// quickRunner builds a runner with a fresh output buffer over the shared
// model caches.
func quickRunner() *Runner {
	r := NewRunner(quickConfig())
	r.trained, r.costRef = quickTrained, quickCostRef
	return r
}

func output(r *Runner) string { return r.Cfg.Out.(*strings.Builder).String() }

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{"table1", "fig4", "fig5", "fig6", "table2", "table3", "fig7", "fig10"}
	if len(ids) != len(want)+len(Ablations()) {
		t.Fatalf("registry has %d experiments, want %d", len(ids), len(want)+len(Ablations()))
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("IDs()[%d] = %s, want %s", i, ids[i], id)
		}
		if _, err := ByID(id); err != nil {
			t.Fatalf("ByID(%s): %v", id, err)
		}
	}
	if _, err := ByID("table9"); err == nil {
		t.Fatal("unknown experiment must be rejected")
	}
}

func TestTable1Quick(t *testing.T) {
	r := quickRunner()
	if err := r.Table1(); err != nil {
		t.Fatal(err)
	}
	out := output(r)
	for _, want := range []string{"Table I", "lenet-mnist", "lenet-cifar10", "M_size", "B_size"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig5Quick(t *testing.T) {
	r := quickRunner()
	if err := r.Fig5(); err != nil {
		t.Fatal(err)
	}
	out := output(r)
	if !strings.Contains(out, "lenet-mnist:") {
		t.Fatalf("missing series:\n%s", out)
	}
	// Each series must have one point per epoch.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "lenet-") {
			points := strings.Fields(strings.SplitN(line, ":", 2)[1])
			if len(points) != r.Cfg.Epochs {
				t.Fatalf("series %q has %d points, want %d", line, len(points), r.Cfg.Epochs)
			}
		}
	}
}

func TestFig6Quick(t *testing.T) {
	r := quickRunner()
	if err := r.Fig6(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(output(r), "n=10") {
		t.Fatalf("missing sweep columns:\n%s", output(r))
	}
}

func TestTables2And3Quick(t *testing.T) {
	r := quickRunner()
	if err := r.Table2(); err != nil {
		t.Fatal(err)
	}
	if err := r.Table3(); err != nil {
		t.Fatal(err)
	}
	out := output(r)
	for _, want := range []string{"Table II", "Table III", "LCRS", "Neurosurgeon", "Edgent", "Mobile-only"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig7Quick(t *testing.T) {
	r := quickRunner()
	if err := r.Fig7(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(output(r), "Figure 7") {
		t.Fatal("missing figure 7 output")
	}
}

func TestFig10Quick(t *testing.T) {
	r := quickRunner()
	if err := r.Fig10(); err != nil {
		t.Fatal(err)
	}
	out := output(r)
	for _, want := range []string{"LCRS-B", "Keras.js", "WebDNN"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig4Quick(t *testing.T) {
	if raceDetectorOn {
		t.Skip("measurement-only sweep; see TestComparisonShapeHolds")
	}
	r := quickRunner()
	if err := r.Fig4(); err != nil {
		t.Fatal(err)
	}
	out := output(r)
	if !strings.Contains(out, "Figure 4(a)") || !strings.Contains(out, "Figure 4(b)") {
		t.Fatalf("missing panels:\n%s", out)
	}
}

// The paper's headline: LCRS end-to-end latency beats every comparator by
// at least 3x on the deep networks (Table II's weakest margin band).
func TestComparisonShapeHolds(t *testing.T) {
	if raceDetectorOn {
		t.Skip("measurement-only sweep, ~5min under -race on one CPU; its concurrency is covered by the edge/webclient race suites")
	}
	r := quickRunner()
	for _, arch := range []string{"alexnet", "resnet18", "vgg16"} {
		// Width-scaled training decides the exits; cost accounting uses the
		// full-scale build of arch, exactly as the real Table II run does.
		reports, err := r.comparisonReports(arch, "mnist")
		if err != nil {
			t.Fatal(err)
		}
		lcrs := reports["LCRS"].AvgTotal
		for _, name := range []string{"Neurosurgeon", "Edgent", "Mobile-only"} {
			ratio := float64(reports[name].AvgTotal) / float64(lcrs)
			if ratio < 3 {
				t.Errorf("%s: %s only %.1fx slower than LCRS", arch, name, ratio)
			}
			if ratio > 200 {
				t.Errorf("%s: %s %.0fx slower than LCRS — outside any plausible band", arch, name, ratio)
			}
		}
	}
}

// Experiment runs must be deterministic: same config, same output.
func TestDeterministicOutput(t *testing.T) {
	if raceDetectorOn {
		t.Skip("two full Table II runs, measurement-only; determinism is a value property the non-race run already pins")
	}
	run := func() string {
		r := NewRunner(quickConfig()) // fresh caches: retrain from scratch
		if err := r.Table2(); err != nil {
			t.Fatal(err)
		}
		return output(r)
	}
	a := run()
	b := run()
	if a != b {
		t.Fatalf("outputs differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}
