package nn

import (
	"fmt"
	"math"

	"lcrs/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy loss over a batch of
// logits (batch x classes) against integer labels, and the gradient of the
// loss with respect to the logits. This is the optimization objective of
// Eq. (2) in the paper; the mean over the batch plays the 1/|C| role of the
// per-sample normalization.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (loss float64, dlogits *tensor.Tensor) {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy expects rank-2 logits, got %v", logits.Shape))
	}
	n, c := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy got %d labels for batch of %d", len(labels), n))
	}
	probs := tensor.Softmax(logits)
	dlogits = tensor.New(n, c)
	inv := 1 / float64(n)
	for i := 0; i < n; i++ {
		y := labels[i]
		if y < 0 || y >= c {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, c))
		}
		row := probs.Row(i)
		p := math.Max(float64(row[y]), 1e-12)
		loss -= float64(math.Log(p) * inv)
		drow := dlogits.Row(i)
		for j, pj := range row {
			drow[j] = pj * float32(inv)
		}
		drow[y] -= float32(inv)
	}
	return loss, dlogits
}

// Accuracy returns the fraction of rows of logits whose argmax equals the
// label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	n := logits.Dim(0)
	correct := 0
	for i := 0; i < n; i++ {
		if tensor.ArgmaxRow(logits.Row(i)) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}
