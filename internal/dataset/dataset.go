// Package dataset provides the synthetic image datasets the repository
// trains on. The real MNIST/FashionMNIST/CIFAR corpora cannot be downloaded
// in an offline build, so each is replaced by a deterministic procedural
// generator with the same tensor shape and class count, and a difficulty
// parameterization (noise, jitter, inter-class similarity) ordered
// MNIST < FashionMNIST < CIFAR10 < CIFAR100 — the ordering the paper's
// accuracy and exit-rate results depend on. The package also generates the
// brand-logo datasets used by the Web AR application experiments, with the
// paper's augmentation pipeline (rotation, translation, zoom, flips, colour
// perturbation).
package dataset

import (
	"fmt"

	"lcrs/internal/tensor"
)

// Dataset is an in-memory labelled image set in NCHW layout.
type Dataset struct {
	// Name identifies the generator ("mnist", "cifar10", ...).
	Name string
	// Classes is the number of distinct labels.
	Classes int
	// X holds the images, shape (N, C, H, W), values roughly in [-1, 1].
	X *tensor.Tensor
	// Labels holds one class index per image.
	Labels []int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Labels) }

// SampleShape returns the per-sample CHW shape.
func (d *Dataset) SampleShape() []int { return d.X.Shape[1:] }

// Sample returns image i (sharing storage) and its label.
func (d *Dataset) Sample(i int) (*tensor.Tensor, int) { return d.X.Batch(i), d.Labels[i] }

// Split partitions the dataset into a training set with trainFrac of the
// samples and a test set with the remainder, preserving order (generators
// already interleave classes).
func (d *Dataset) Split(trainFrac float64) (train, test *Dataset) {
	n := d.Len()
	cut := int(float64(n) * trainFrac)
	if cut <= 0 || cut >= n {
		panic(fmt.Sprintf("dataset: Split fraction %v leaves an empty side of %d samples", trainFrac, n))
	}
	shape := d.SampleShape()
	per := shape[0] * shape[1] * shape[2]
	train = &Dataset{
		Name: d.Name, Classes: d.Classes,
		X:      tensor.FromSlice(d.X.Data[:cut*per], append([]int{cut}, shape...)...),
		Labels: d.Labels[:cut],
	}
	test = &Dataset{
		Name: d.Name, Classes: d.Classes,
		X:      tensor.FromSlice(d.X.Data[cut*per:], append([]int{n - cut}, shape...)...),
		Labels: d.Labels[cut:],
	}
	return train, test
}

// Batch is one training minibatch.
type Batch struct {
	X      *tensor.Tensor // (B, C, H, W)
	Labels []int
}

// Batches returns shuffled minibatches covering the dataset once. The final
// short batch is included. Images are copied so layers may cache them.
func (d *Dataset) Batches(g *tensor.RNG, batchSize int) []Batch {
	if batchSize <= 0 {
		panic("dataset: batch size must be positive")
	}
	order := g.Perm(d.Len())
	shape := d.SampleShape()
	per := shape[0] * shape[1] * shape[2]
	var out []Batch
	for start := 0; start < len(order); start += batchSize {
		end := start + batchSize
		if end > len(order) {
			end = len(order)
		}
		b := end - start
		x := tensor.New(append([]int{b}, shape...)...)
		labels := make([]int, b)
		for j, idx := range order[start:end] {
			copy(x.Data[j*per:(j+1)*per], d.X.Data[idx*per:(idx+1)*per])
			labels[j] = d.Labels[idx]
		}
		out = append(out, Batch{X: x, Labels: labels})
	}
	return out
}
