package binary

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lcrs/internal/tensor"
)

// Differential parity of the packed kernels against their definition,
// computed one element at a time: Im2Col into a float matrix, PackSigns
// each receptive field with a branch per value, XnorDot it against each
// filter, with the K plane and beta summed by branching on each value's
// sign. Every output must match to the bit.

func oraclePackSigns(dst []uint64, src []float32) {
	for i := range dst {
		dst[i] = 0
	}
	for i, v := range src {
		if v >= 0 {
			dst[i/64] |= 1 << uint(i%64)
		}
	}
}

func oracleInputScales(g tensor.ConvGeom, img []float32) []float32 {
	inHW := g.InH * g.InW
	a := make([]float32, inHW)
	invC := 1 / float32(g.InC)
	for c := 0; c < g.InC; c++ {
		for i, v := range img[c*inHW : (c+1)*inHW] {
			if v < 0 {
				a[i] -= v * invC
			} else {
				a[i] += v * invC
			}
		}
	}
	k := make([]float32, g.OutH()*g.OutW())
	invKK := 1 / float32(g.KH*g.KW)
	idx := 0
	for oy := 0; oy < g.OutH(); oy++ {
		for ox := 0; ox < g.OutW(); ox++ {
			var s float32
			for ky := 0; ky < g.KH; ky++ {
				iy := oy*g.Stride - g.Pad + ky
				if iy < 0 || iy >= g.InH {
					continue
				}
				for kx := 0; kx < g.KW; kx++ {
					if ix := ox*g.Stride - g.Pad + kx; ix >= 0 && ix < g.InW {
						s += a[iy*g.InW+ix]
					}
				}
			}
			k[idx] = s * invKK
			idx++
		}
	}
	return k
}

func oracleRowScale(row []float32) float32 {
	var s float64
	for _, v := range row {
		if v < 0 {
			s -= float64(v)
		} else {
			s += float64(v)
		}
	}
	return float32(s / float64(len(row)))
}

func oracleConv(p *PackedConv2D, x *tensor.Tensor) *tensor.Tensor {
	g := p.Geom(x.Shape[1:])
	pp, k := g.OutH()*g.OutW(), p.W.N
	out := tensor.New(x.Dim(0), p.OutC, g.OutH(), g.OutW())
	raw := make([]float32, pp*k)
	field := make([]uint64, p.W.WordsPerRow)
	for i := 0; i < x.Dim(0); i++ {
		img := x.Batch(i).Data
		g.Im2Col(raw, img)
		ks := oracleInputScales(g, img)
		ob := out.Batch(i).Data
		for pos := 0; pos < pp; pos++ {
			oraclePackSigns(field, raw[pos*k:(pos+1)*k])
			for o := 0; o < p.OutC; o++ {
				dot := XnorDot(p.W.Row(o), field, k)
				ob[o*pp+pos] = p.Alpha[o]*ks[pos]*float32(dot) + p.Bias[o]
			}
		}
	}
	return out
}

func oracleLinear(p *PackedLinear, x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Dim(0), p.Out)
	xrow := make([]uint64, p.W.WordsPerRow)
	for i := 0; i < x.Dim(0); i++ {
		row := x.Row(i)
		beta := oracleRowScale(row)
		oraclePackSigns(xrow, row)
		for o := 0; o < p.Out; o++ {
			out.Row(i)[o] = p.Alpha[o]*beta*float32(XnorDot(p.W.Row(o), xrow, p.In)) + p.Bias[o]
		}
	}
	return out
}

// saltedInput draws uniform values with exact zeros and NaNs of both signs
// mixed in: the values whose sign bit a branchless packer could get wrong.
// NaNs are rare: one poisons the K plane of every window it falls in, and a
// NaN output hides the dot behind it.
func saltedInput(r *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data {
		switch d := r.Intn(1000); {
		case d < 20:
			x.Data[i] = 0
		case d < 40:
			x.Data[i] = float32(math.Copysign(0, -1))
		case d == 40:
			x.Data[i] = float32(math.NaN())
		case d == 41:
			x.Data[i] = -float32(math.NaN())
		default:
			x.Data[i] = float32(r.Float64()*4 - 2)
		}
	}
	return x
}

func requireSameBits(t *testing.T, what string, want, got *tensor.Tensor) {
	t.Helper()
	if len(want.Data) != len(got.Data) {
		t.Fatalf("%s: %d outputs, want %d", what, len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
			t.Fatalf("%s: output %d = %v (%#08x), oracle %v (%#08x)", what, i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

type convCase struct{ n, inC, outC, h, w, kh, kw, stride, pad int }

// convCases draws seeded geometries — channel counts and k that are not
// multiples of 64, odd sizes, stride 1–2, pad 0–2, batch 1–3 — plus fixed
// cases for what a draw could miss: padded rows wider than one word, k an
// exact multiple of 64, and a kernel row wider than 64 columns.
func convCases(r *rand.Rand) []convCase {
	cs := []convCase{
		{n: 2, inC: 3, outC: 6, h: 5, w: 67, kh: 3, kw: 3, stride: 1, pad: 2},
		{n: 1, inC: 2, outC: 5, h: 4, w: 131, kh: 2, kw: 3, stride: 2, pad: 1},
		{n: 1, inC: 64, outC: 9, h: 3, w: 3, kh: 1, kw: 1, stride: 1, pad: 0},
		{n: 1, inC: 65, outC: 4, h: 4, w: 5, kh: 3, kw: 3, stride: 1, pad: 1},
		{n: 1, inC: 2, outC: 3, h: 2, w: 75, kh: 1, kw: 70, stride: 1, pad: 1},
	}
	for len(cs) < 40 {
		c := convCase{
			n: 1 + r.Intn(3), inC: 1 + r.Intn(9), outC: 1 + r.Intn(11),
			h: 1 + r.Intn(13), w: 1 + r.Intn(13),
			kh: 1 + r.Intn(3), kw: 1 + r.Intn(3), stride: 1 + r.Intn(2), pad: r.Intn(3),
		}
		if c.h+2*c.pad < c.kh || c.w+2*c.pad < c.kw {
			continue
		}
		cs = append(cs, c)
	}
	return cs
}

func TestPackedConvMatchesOracleBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for i, c := range convCases(r) {
		name := fmt.Sprintf("case %d %+v", i, c)
		p := PackConv2D(NewConv2D("bc", tensor.NewRNG(int64(i)), c.inC, c.outC, c.kh, c.kw, c.stride, c.pad))
		for o := range p.Bias {
			p.Bias[o] = float32(r.NormFloat64())
		}
		// A larger image first, so the case runs on scratch holding another
		// image's bits.
		p.Forward(saltedInput(r, 1, c.inC, c.h+2, c.w+3))
		x := saltedInput(r, c.n, c.inC, c.h, c.w)
		requireSameBits(t, name, oracleConv(p, x), p.Forward(x))
		clone := PackedLayer{Conv: p}.CloneForInference().(PackedLayer)
		requireSameBits(t, name+" (clone)", oracleConv(p, x), clone.Forward(x, false))
	}
}

func TestPackedLinearMatchesOracleBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	for i, in := range []int{1, 37, 63, 64, 65, 130, 200} {
		out, n := 1+r.Intn(11), 1+r.Intn(3)
		p := PackLinear(NewLinear("bl", tensor.NewRNG(int64(i)), in, out))
		for o := range p.Bias {
			p.Bias[o] = float32(r.NormFloat64())
		}
		p.Forward(saltedInput(r, n+1, in))
		x := saltedInput(r, n, in)
		requireSameBits(t, fmt.Sprintf("in=%d out=%d n=%d", in, out, n), oracleLinear(p, x), p.Forward(x))
	}
}

// PackSigns keeps its contract on the values a branchless packer could get
// wrong: bit set exactly when v >= 0, padding bits zero.
func TestPackSignsSpecialValues(t *testing.T) {
	inf := float32(math.Inf(1))
	vals := []float32{0, float32(math.Copysign(0, -1)), 1, -1, inf, -inf,
		float32(math.NaN()), -float32(math.NaN()), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.MaxFloat32, -math.MaxFloat32}
	for len(vals) < 150 {
		vals = append(vals, vals[len(vals)%12])
	}
	want := make([]uint64, wordsFor(len(vals)))
	got := make([]uint64, len(want))
	oraclePackSigns(want, vals)
	PackSigns(got, vals)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("word %d = %#x, want %#x", i, got[i], want[i])
		}
	}
}
