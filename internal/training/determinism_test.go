package training

import (
	"testing"

	"lcrs/internal/dataset"
	"lcrs/internal/exitpolicy"
	"lcrs/internal/modelio"
	"lcrs/internal/models"
	"lcrs/internal/tensor"
)

// trainedPackVersion is the version of the pack TestTrainedPackIsPinned
// trains. Training is bitwise the same at every worker count and on every
// GOARCH (no fused multiply-add), so a change that moves it changed the
// arithmetic of training, screening or packing: re-derive it only with a
// reason stated next to the change.
const trainedPackVersion = "2fbcbf7714cd"

// TestTrainedPackIsPinned trains, screens and packs a tiny LeNet the way
// lcrs-train does, at 1, 2 and 3 kernel workers. All three must mint the
// pinned pack version: a sum re-associated anywhere in the forward, the
// backward, the optimizer or the kernels they run moves it, and one whose
// order depends on how work is split moves it at some worker count.
func TestTrainedPackIsPinned(t *testing.T) {
	cfg := models.Config{Classes: 10, InC: 1, InH: 28, InW: 28, WidthScale: 0.1, Seed: 1}
	full, err := dataset.GenerateByName("mnist", 120, 1)
	if err != nil {
		t.Fatal(err)
	}
	train, test := full.Split(0.8)
	for _, workers := range []int{1, 2, 3} {
		prev := tensor.SetMaxWorkers(workers)
		version := func() string {
			defer tensor.SetMaxWorkers(prev)
			m, err := models.Build("lenet", cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(m, train, test, Options{
				Epochs: 2, BatchSize: 32, MainLR: 1e-3, BinaryLR: 1e-3, ClipNorm: 5, Seed: cfg.Seed,
			}); err != nil {
				t.Fatal(err)
			}
			ev := EvaluateBranches(m, test, 32)
			tau, _ := exitpolicy.ScreenAccuracyPreserving(ev.Entropies, ev.BinaryCorrect, ev.MainCorrect)
			data, err := modelio.EncodePack(modelio.PackManifest{Arch: "lenet", Config: cfg, Tau: tau}, m)
			if err != nil {
				t.Fatal(err)
			}
			_, v, err := modelio.ReadPackManifest(data)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}()
		if version != trainedPackVersion {
			t.Errorf("%d workers: pack version %s, pinned %s", workers, version, trainedPackVersion)
		}
	}
}
