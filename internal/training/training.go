// Package training implements the paper's joint training procedure
// (Algorithm 1): per minibatch, a standard forward/backward/update step on
// the main branch, followed by a binarized forward/backward step on the
// binary branch with full-precision shadow weights. It records per-epoch
// history for the Figure 5 training curves and provides the evaluation
// helpers used by threshold screening and Table I.
package training

import (
	"fmt"
	"io"

	"lcrs/internal/binary"
	"lcrs/internal/dataset"
	"lcrs/internal/exitpolicy"
	"lcrs/internal/models"
	"lcrs/internal/nn"
	"lcrs/internal/tensor"
)

// Options configures a joint training run.
type Options struct {
	// Epochs is the number of passes over the training set.
	Epochs int
	// BatchSize is the minibatch size.
	BatchSize int
	// MainLR and BinaryLR are initial Adam learning rates for the two
	// optimizers.
	MainLR, BinaryLR float64
	// LRDecayEvery halves both learning rates every N epochs when > 0.
	LRDecayEvery int
	// ClipNorm clips each step's global gradient norm when > 0; the binary
	// branch's straight-through gradients occasionally spike.
	ClipNorm float64
	// Seed drives batch shuffling.
	Seed int64
	// Log receives one line per epoch when non-nil.
	Log io.Writer
	// Patience stops training early when the binary branch's evaluation
	// accuracy has not improved for this many consecutive epochs
	// (0 disables early stopping).
	Patience int
}

// DefaultOptions returns settings that train the scaled-down test networks
// quickly and stably.
func DefaultOptions() Options {
	return Options{Epochs: 10, BatchSize: 32, MainLR: 1e-3, BinaryLR: 1e-3, ClipNorm: 5, Seed: 1}
}

// EpochStats records one epoch of joint training (one point of Figure 5).
type EpochStats struct {
	Epoch      int
	MainLoss   float64
	BinaryLoss float64
	MainAcc    float64 // test accuracy of the main branch
	BinaryAcc  float64 // test accuracy of the binary branch
}

// Result is a completed training run.
type Result struct {
	History []EpochStats
	// Final accuracies on the evaluation set (last epoch's).
	MainAcc, BinaryAcc float64
}

// Run jointly trains the composite per Algorithm 1 and evaluates both
// branches on eval after every epoch.
func Run(m *models.Composite, train, eval *dataset.Dataset, opts Options) (*Result, error) {
	if opts.Epochs <= 0 || opts.BatchSize <= 0 {
		return nil, fmt.Errorf("training: epochs and batch size must be positive, got %d/%d", opts.Epochs, opts.BatchSize)
	}
	mainOpt := nn.NewAdam(m.MainParams(), opts.MainLR)
	binOpt := nn.NewAdam(m.BinaryParams(), opts.BinaryLR)
	g := tensor.NewRNG(opts.Seed)
	mainSched := nn.StepDecay{Initial: opts.MainLR, Factor: 0.5, Every: opts.LRDecayEvery}
	binSched := nn.StepDecay{Initial: opts.BinaryLR, Factor: 0.5, Every: opts.LRDecayEvery}

	res := &Result{}
	bestBinary, sinceBest := -1.0, 0
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		mainOpt.SetLR(mainSched.At(epoch))
		binOpt.SetLR(binSched.At(epoch))
		var mainLoss, binLoss float64
		batches := train.Batches(g, opts.BatchSize)
		for _, b := range batches {
			// Algorithm 1 lines 1-5: standard step on the main branch,
			// updating the shared prefix and the main rest.
			mainOpt.ZeroGrad()
			shared := m.ForwardShared(b.X, true)
			logits := m.ForwardMainRest(shared, true)
			loss, dlogits := nn.SoftmaxCrossEntropy(logits, b.Labels)
			mainLoss += float64(loss * float64(len(b.Labels)))
			dshared := m.MainRest.Backward(dlogits)
			m.Shared.Backward(dshared)
			if opts.ClipNorm > 0 {
				nn.ClipGradients(m.MainParams(), opts.ClipNorm)
			}
			mainOpt.Step()

			// Algorithm 1 lines 6-14: binarized step on the binary branch.
			// The shared prefix runs in inference mode and is frozen here
			// so binary training cannot degrade the main branch.
			binOpt.ZeroGrad()
			sharedEval := m.ForwardShared(b.X, false)
			blogits := m.ForwardBinary(sharedEval, true)
			bloss, dblogits := nn.SoftmaxCrossEntropy(blogits, b.Labels)
			binLoss += float64(bloss * float64(len(b.Labels)))
			m.Binary.Backward(dblogits)
			if opts.ClipNorm > 0 {
				nn.ClipGradients(m.BinaryParams(), opts.ClipNorm)
			}
			binOpt.Step()
		}

		st := EpochStats{
			Epoch:      epoch,
			MainLoss:   mainLoss / float64(train.Len()),
			BinaryLoss: binLoss / float64(train.Len()),
		}
		ev := EvaluateBranches(m, eval, opts.BatchSize)
		st.MainAcc, st.BinaryAcc = ev.MainAcc, ev.BinaryAcc
		res.History = append(res.History, st)
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "epoch %2d: main loss %.4f acc %.4f | binary loss %.4f acc %.4f\n",
				epoch, st.MainLoss, st.MainAcc, st.BinaryLoss, st.BinaryAcc)
		}
		if st.BinaryAcc > bestBinary {
			bestBinary, sinceBest = st.BinaryAcc, 0
		} else {
			sinceBest++
			if opts.Patience > 0 && sinceBest >= opts.Patience {
				if opts.Log != nil {
					fmt.Fprintf(opts.Log, "early stop at epoch %d (no improvement for %d epochs)\n",
						epoch, opts.Patience)
				}
				break
			}
		}
	}
	last := res.History[len(res.History)-1]
	res.MainAcc, res.BinaryAcc = last.MainAcc, last.BinaryAcc
	return res, nil
}

// Evaluation holds per-sample branch outcomes over a dataset: everything
// threshold screening (exitpolicy.Screen) and Table I need.
type Evaluation struct {
	MainAcc       float64
	BinaryAcc     float64
	Entropies     []float64 // normalized entropy of binary softmax per sample
	BinaryCorrect []bool
	MainCorrect   []bool
}

// EvaluateBranches runs both branches over ds and collects accuracies,
// per-sample correctness and binary-branch entropies. The binary branch is
// packed once per call and runs on the XNOR engine the web client runs, so
// its entropies and answers are bitwise the client's.
func EvaluateBranches(m *models.Composite, ds *dataset.Dataset, batchSize int) Evaluation {
	ev := Evaluation{
		Entropies:     make([]float64, 0, ds.Len()),
		BinaryCorrect: make([]bool, 0, ds.Len()),
		MainCorrect:   make([]bool, 0, ds.Len()),
	}
	branch := binary.PackBranch(m.CloneForInference().Binary)
	var mainRight, binRight int
	shape := ds.SampleShape()
	per := shape[0] * shape[1] * shape[2]
	for start := 0; start < ds.Len(); start += batchSize {
		end := start + batchSize
		if end > ds.Len() {
			end = ds.Len()
		}
		b := end - start
		x := tensor.FromSlice(ds.X.Data[start*per:end*per], append([]int{b}, shape...)...)
		labels := ds.Labels[start:end]

		shared := m.ForwardShared(x, false)
		mainLogits := m.ForwardMainRest(shared, false)
		binLogits := branch.Forward(shared)
		binProbs := tensor.Softmax(binLogits)
		for i := 0; i < b; i++ {
			mc := tensor.ArgmaxRow(mainLogits.Row(i)) == labels[i]
			bc := tensor.ArgmaxRow(binLogits.Row(i)) == labels[i]
			if mc {
				mainRight++
			}
			if bc {
				binRight++
			}
			ev.MainCorrect = append(ev.MainCorrect, mc)
			ev.BinaryCorrect = append(ev.BinaryCorrect, bc)
			ev.Entropies = append(ev.Entropies, exitpolicy.NormalizedEntropy(binProbs.Row(i)))
		}
	}
	ev.MainAcc = float64(mainRight) / float64(ds.Len())
	ev.BinaryAcc = float64(binRight) / float64(ds.Len())
	return ev
}
