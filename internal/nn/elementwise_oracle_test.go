package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lcrs/internal/tensor"
)

// Differential parity of the branchless eval ReLU and max pool against the
// branching loops they replace, on inputs salted with the values where a
// builtin max or a bit trick could part from them: NaNs of both signs, ±0,
// ±Inf, ties of -0 and +0, and windows holding nothing above -Inf.

func oracleReLU(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape...)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = 0
		}
	}
	return out
}

func oracleMaxPool(m *MaxPool2D, x *tensor.Tensor) *tensor.Tensor {
	n, c, inH, inW := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	g := m.geom(x.Shape[1:])
	out := tensor.New(n, c, g.OutH(), g.OutW())
	oi := 0
	for p := 0; p < n*c; p++ {
		plane := x.Data[p*inH*inW:]
		for oy := 0; oy < g.OutH(); oy++ {
			for ox := 0; ox < g.OutW(); ox++ {
				best, found := float32(math.Inf(-1)), false
				for ky := 0; ky < m.K; ky++ {
					iy := oy*m.Stride - m.Pad + ky
					if iy < 0 || iy >= inH {
						continue
					}
					for kx := 0; kx < m.K; kx++ {
						ix := ox*m.Stride - m.Pad + kx
						if ix < 0 || ix >= inW {
							continue
						}
						if v := plane[iy*inW+ix]; v > best {
							best, found = v, true
						}
					}
				}
				if !found {
					best = 0
				}
				out.Data[oi] = best
				oi++
			}
		}
	}
	return out
}

var (
	negZero = float32(math.Copysign(0, -1))
	posInf  = float32(math.Inf(1))
	negInf  = float32(math.Inf(-1))
	posNaN  = float32(math.NaN())
	negNaN  = -float32(math.NaN())
)

// saltedActivations draws normal values with a quarter replaced by special
// ones, then plants runs that, at any window alignment, make some windows a
// -0 before a +0 and some windows nothing but -Inf and NaN.
func saltedActivations(r *rand.Rand, shape ...int) *tensor.Tensor {
	special := []float32{0, negZero, posInf, negInf, posNaN, negNaN}
	x := tensor.New(shape...)
	for i := range x.Data {
		if r.Intn(4) == 0 {
			x.Data[i] = special[r.Intn(len(special))]
		} else {
			x.Data[i] = float32(r.NormFloat64())
		}
	}
	for i := 0; i+8 <= len(x.Data); i += 8 + r.Intn(40) {
		run := [][]float32{{negZero, 0}, {negInf, negNaN, negInf, posNaN}}[r.Intn(2)]
		for j := 0; j < 8; j++ {
			x.Data[i+j] = run[j%len(run)]
		}
	}
	return x
}

func requireSameBits(t *testing.T, what string, want, got *tensor.Tensor) {
	t.Helper()
	for i := range want.Data {
		if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
			t.Fatalf("%s: output %d = %v (%#08x), oracle %v (%#08x)", what, i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

func TestReLUMatchesOracleBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	x := saltedActivations(r, 3, 5, 7, 9)
	requireSameBits(t, "relu", oracleReLU(x), NewReLU("r").Forward(x, false))
}

func TestMaxPoolMatchesOracleBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	for i := 0; i < 60; i++ {
		k, stride, pad := 1+r.Intn(3), 1+r.Intn(2), r.Intn(3)
		n, c, h, w := 1+r.Intn(3), 1+r.Intn(4), 1+r.Intn(12), 1+r.Intn(12)
		if h+2*pad < k || w+2*pad < k {
			continue
		}
		m := NewMaxPool2D("p", k, stride, pad)
		x := saltedActivations(r, n, c, h, w)
		name := fmt.Sprintf("k=%d stride=%d pad=%d shape=%v", k, stride, pad, x.Shape)
		want := oracleMaxPool(m, x)
		requireSameBits(t, name, want, m.Forward(x, false))
		// The training pass must pool the same values.
		requireSameBits(t, name+" (train)", want, m.Forward(x, true))
	}
}
