package training_test

import (
	"math"
	"sort"
	"testing"

	"lcrs/internal/dataset"
	"lcrs/internal/edgesim"
	"lcrs/internal/exitpolicy"
	"lcrs/internal/modelio"
	"lcrs/internal/models"
	"lcrs/internal/tensor"
	"lcrs/internal/training"
)

// clientAnswer is what a web client, and the edge behind it, make of one
// sample.
type clientAnswer struct {
	entropy  float64
	binPred  int
	binOK    bool
	edgePred int // the edge's answer to the client's conv1 output
}

// clientAnswers runs the web client's engine over ds one sample at a time:
// a models.BuildClient skeleton filled from m's browser bundle, running
// ForwardShared then ForwardBinary. The edge half runs m's main rest on the
// client's own conv1 output, as the raw codec carries it.
func clientAnswers(t *testing.T, arch string, m *models.Composite, ds *dataset.Dataset) []clientAnswer {
	t.Helper()
	bundle, err := modelio.EncodeBrowserBundle(m)
	if err != nil {
		t.Fatal(err)
	}
	client, err := models.BuildClient(arch, m.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := modelio.DecodeBrowserBundle(bundle, client); err != nil {
		t.Fatal(err)
	}
	edge := m.CloneForInference()
	out := make([]clientAnswer, ds.Len())
	for i := range out {
		x, label := ds.Sample(i)
		client.ResetScratch()
		shared := client.ForwardShared(x.Reshape(append([]int{1}, x.Shape...)...), false)
		logits := client.ForwardBinary(shared, false)
		a := &out[i]
		a.entropy = exitpolicy.NormalizedEntropy(tensor.Softmax(logits).Row(0))
		a.binPred = tensor.ArgmaxRow(logits.Row(0))
		a.binOK = a.binPred == label
		a.edgePred = tensor.ArgmaxRow(edge.ForwardMainRest(shared, false).Row(0))
	}
	return out
}

// The binary numbers the paper tables report (EvaluateBranches, Table I and
// screening) and the ones the latency runtime acts on (edgesim.Runtime,
// Table II/III) must be the web client's, bit for bit. Random-init models
// are the hard case: their XNOR dot products are often exactly 0, which the
// packed engine and the float-shadow forward resolve differently.
func TestEvaluateBranchesMatchesClient(t *testing.T) {
	cases := []struct {
		arch, data string
		cfg        models.Config
	}{
		{"alexnet", "cifar10", models.Config{Classes: 10, InC: 3, InH: 32, InW: 32, WidthScale: 0.25, Seed: 1}},
		{"lenet", "mnist", models.Config{Classes: 10, InC: 1, InH: 28, InW: 28, WidthScale: 0.12, Seed: 1}},
	}
	const samples, batch = 72, 32 // 32 + 32 + a ragged 8
	for _, tc := range cases {
		t.Run(tc.arch, func(t *testing.T) {
			m, err := models.Build(tc.arch, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := dataset.GenerateByName(tc.data, samples, 3)
			if err != nil {
				t.Fatal(err)
			}
			want := clientAnswers(t, tc.arch, m, ds)

			ev := training.EvaluateBranches(m, ds, batch)
			if len(ev.Entropies) != samples || len(ev.BinaryCorrect) != samples {
				t.Fatalf("evaluation has %d entropies, %d correctness values; want %d",
					len(ev.Entropies), len(ev.BinaryCorrect), samples)
			}
			for i, w := range want {
				if math.Float64bits(ev.Entropies[i]) != math.Float64bits(w.entropy) {
					t.Fatalf("sample %d: EvaluateBranches entropy %v, client %v", i, ev.Entropies[i], w.entropy)
				}
				if ev.BinaryCorrect[i] != w.binOK {
					t.Fatalf("sample %d: EvaluateBranches binary correct %v, client %v", i, ev.BinaryCorrect[i], w.binOK)
				}
			}

			// At the median entropy about half the samples exit, so both of
			// the runtime's paths are compared.
			sorted := append([]float64(nil), ev.Entropies...)
			sort.Float64s(sorted)
			tau := sorted[samples/2]
			rt, err := edgesim.NewRuntime(m, tau, edgesim.DefaultCostModel())
			if err != nil {
				t.Fatal(err)
			}
			exits := 0
			for i, w := range want {
				x, _ := ds.Sample(i)
				rec := rt.Infer(x)
				exited, pred := exitpolicy.ShouldExit(w.entropy, tau), w.edgePred
				if exited {
					exits++
					pred = w.binPred
				}
				if math.Float64bits(rec.Entropy) != math.Float64bits(w.entropy) {
					t.Fatalf("sample %d: Runtime entropy %v, client %v", i, rec.Entropy, w.entropy)
				}
				if rec.Exited != exited || rec.Pred != pred {
					t.Fatalf("sample %d: Runtime (exited %v, pred %d), client (exited %v, pred %d)",
						i, rec.Exited, rec.Pred, exited, pred)
				}
			}
			if exits == 0 || exits == samples {
				t.Fatalf("tau %v exits %d of %d samples; the test needs both paths", tau, exits, samples)
			}
		})
	}
}
