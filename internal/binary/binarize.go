// Package binary implements XNOR-Net-style binary convolutional and fully
// connected layers: training-time layers that binarize inputs and weights
// with scaling factors while keeping full-precision shadow weights
// (straight-through estimator), and deployment-time bit-packed layers whose
// dot products are XNOR + popcount over 64-bit lanes. These are the building
// blocks of the paper's binary branch (Eq. 4-6 and Algorithm 1).
package binary

import (
	"math"

	"lcrs/internal/tensor"
)

// FilterAlphas computes the per-output-filter scaling factor
// alpha_o = ||W_o||_1 / n for a weight tensor whose outermost dimension
// indexes output filters (Algorithm 1 line 9).
func FilterAlphas(w *tensor.Tensor) []float32 {
	outC := w.Dim(0)
	n := w.Len() / outC
	alphas := make([]float32, outC)
	for o := 0; o < outC; o++ {
		var s float64
		for _, v := range w.Data[o*n : (o+1)*n] {
			if v < 0 {
				s -= float64(v)
			} else {
				s += float64(v)
			}
		}
		alphas[o] = float32(s / float64(n))
	}
	return alphas
}

// EstimateWeights writes the binarized estimate W~ = alpha_o * sign(W) into
// dst (same shape as w) and returns the alphas.
func EstimateWeights(dst, w *tensor.Tensor) []float32 {
	alphas := FilterAlphas(w)
	outC := w.Dim(0)
	n := w.Len() / outC
	for o := 0; o < outC; o++ {
		a := alphas[o]
		src := w.Data[o*n : (o+1)*n]
		out := dst.Data[o*n : (o+1)*n]
		for i, v := range src {
			if v < 0 {
				out[i] = -a
			} else {
				out[i] = a
			}
		}
	}
	return alphas
}

// STEMask writes the straight-through estimator gate 1_{|x| <= 1} (Eq. 5)
// into dst for every element of src.
func STEMask(dst, src *tensor.Tensor) {
	for i, v := range src.Data {
		if v >= -1 && v <= 1 {
			dst.Data[i] = 1
		} else {
			dst.Data[i] = 0
		}
	}
}

// WeightGradThrough converts the gradient with respect to the estimated
// weights W~ into the gradient with respect to the full-precision weights
// using Eq. (6): dW_i = dW~_i * (1/n + alpha_o * 1_{|W_i| <= 1}).
// The result is accumulated into grad.
func WeightGradThrough(grad, dEst, w *tensor.Tensor, alphas []float32) {
	outC := w.Dim(0)
	n := w.Len() / outC
	invN := float32(1) / float32(n)
	for o := 0; o < outC; o++ {
		a := alphas[o]
		ws := w.Data[o*n : (o+1)*n]
		de := dEst.Data[o*n : (o+1)*n]
		gr := grad.Data[o*n : (o+1)*n]
		for i, wi := range ws {
			factor := invN
			if wi >= -1 && wi <= 1 {
				factor += a
			}
			gr[i] += float32(de[i] * factor)
		}
	}
}

// InputScales computes the XNOR-Net input scaling matrix K for one sample:
// A = mean over channels of |I| (an InH x InW plane), convolved with a
// kh x kw mean filter at the conv geometry, yielding one scale per output
// position. The result has length OutH*OutW.
func InputScales(g tensor.ConvGeom, img []float32) []float32 {
	k := make([]float32, g.OutH()*g.OutW())
	InputScalesInto(k, make([]float32, g.InH*g.InW), g, img)
	return k
}

// InputScalesInto is InputScales writing into caller-provided storage: dst
// must have length OutH*OutW and aplane length InH*InW (used as scratch for
// the channel-mean plane). It performs no allocations, which keeps the
// fused binary-conv forward off the heap.
func InputScalesInto(dst, aplane []float32, g tensor.ConvGeom, img []float32) {
	inHW := g.InH * g.InW
	a := aplane[:inHW]
	for i := range a {
		a[i] = 0
	}
	invC := 1 / float32(g.InC)
	for c := 0; c < g.InC; c++ {
		plane := img[c*inHW : (c+1)*inHW][:len(a)]
		for i, v := range plane {
			a[i] += float32(magnitude(v) * invC)
		}
	}
	outH, outW := g.OutH(), g.OutW()
	k := dst[:outH*outW]
	invKK := 1 / float32(g.KH*g.KW)
	idx := 0
	for oy := 0; oy < outH; oy++ {
		iy0 := oy*g.Stride - g.Pad
		for ox := 0; ox < outW; ox++ {
			ix0 := ox*g.Stride - g.Pad
			var s float32
			for ky := 0; ky < g.KH; ky++ {
				iy := iy0 + ky
				if iy < 0 || iy >= g.InH {
					continue
				}
				for kx := 0; kx < g.KW; kx++ {
					ix := ix0 + kx
					if ix < 0 || ix >= g.InW {
						continue
					}
					s += a[iy*g.InW+ix]
				}
			}
			k[idx] = s * invKK
			idx++
		}
	}
}

// RowScale returns beta = mean |x| of a vector, the dense-layer analogue of
// the input scaling factor.
func RowScale(row []float32) float32 {
	var s float64
	for _, v := range row {
		s += float64(magnitude(v))
	}
	return float32(s / float64(len(row)))
}

// magnitude returns |v| without a branch on v's sign, which is random in
// an activation. Adding it is bitwise the sum XNOR-Net defines — subtract v
// when v < 0, add it otherwise: s - v equals s + |v| for v < 0, and s + 0
// equals s + -0 for the non-negative sums here. A NaN is returned with its
// sign, as the definition adds it.
func magnitude(v float32) float32 {
	u := math.Float32bits(v)
	if a := u &^ (1 << 31); a <= 0x7f800000 {
		u = a
	}
	return math.Float32frombits(u)
}
