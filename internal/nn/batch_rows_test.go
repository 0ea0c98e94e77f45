package nn_test

import (
	"fmt"
	"math"
	"testing"

	"lcrs/internal/models"
	"lcrs/internal/nn"
	"lcrs/internal/tensor"
)

// Row i of a batched eval forward is bitwise the single-sample forward of
// sample i: a batch splits its convolutions across samples and streams its
// FC weights once for all rows, and neither may move a bit of any row.
// Checked for a bare Conv2D and Linear (heap scratch) and for an AlexNet
// rest-of-main serving replica (arena scratch, the edge's batched path),
// at batch sizes 2..5 and worker counts 1..3.
func TestBatchRowMatchesSingleForward(t *testing.T) {
	g := tensor.NewRNG(23)
	conv := nn.NewConv2D("conv", g, 5, 11, 3, 3, 1, 1)
	fc := nn.NewLinear("fc", g, 301, 13)
	alex := models.AlexNet(models.Config{Classes: 10, InC: 3, InH: 32, InW: 32, WidthScale: 0.25, Seed: 3})
	replica := alex.CloneForServing()
	cases := []struct {
		name    string
		sample  []int
		forward func(x *tensor.Tensor) *tensor.Tensor
	}{
		{"conv", []int{5, 9, 7}, func(x *tensor.Tensor) *tensor.Tensor { return conv.Forward(x, false) }},
		{"linear", []int{301}, func(x *tensor.Tensor) *tensor.Tensor { return fc.Forward(x, false) }},
		{"alexnet-mainrest", alex.SharedOutShape(), func(x *tensor.Tensor) *tensor.Tensor {
			replica.ResetScratch()
			return replica.ForwardMainRest(x, false)
		}},
	}
	for _, tc := range cases {
		for n := 2; n <= 5; n++ {
			x := g.Uniform(-1, 1, append([]int{n}, tc.sample...)...)
			per := x.Len() / n
			for _, workers := range []int{1, 2, 3} {
				t.Run(fmt.Sprintf("%s/n=%d/workers=%d", tc.name, n, workers), func(t *testing.T) {
					prev := tensor.SetMaxWorkers(workers)
					defer tensor.SetMaxWorkers(prev)
					// Copy each result out: an arena forward's output is
					// only valid until the next forward.
					batched := tc.forward(x).Clone()
					rowLen := batched.Len() / n
					for i := 0; i < n; i++ {
						one := tensor.FromSlice(x.Data[i*per:(i+1)*per], append([]int{1}, tc.sample...)...)
						single := tc.forward(one)
						if single.Len() != rowLen {
							t.Fatalf("row %d: single forward has %d values, batch row %d", i, single.Len(), rowLen)
						}
						for j, v := range single.Data {
							if got := batched.Data[i*rowLen+j]; math.Float32bits(got) != math.Float32bits(v) {
								t.Fatalf("row %d element %d: batched %g, single %g", i, j, got, v)
							}
						}
					}
				})
			}
		}
	}
}
