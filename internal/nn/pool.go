package nn

import (
	"fmt"
	"math"
	"math/bits"

	"lcrs/internal/tensor"
)

// MaxPool2D is a max pooling layer over NCHW input.
type MaxPool2D struct {
	name   string
	K      int
	Stride int
	Pad    int

	lastShape []int
	argmax    []int32 // flat input index chosen for each output element
	arena     *tensor.Arena
}

// NewMaxPool2D constructs a max pooling layer with a square window.
func NewMaxPool2D(name string, k, stride, pad int) *MaxPool2D {
	return &MaxPool2D{name: name, K: k, Stride: stride, Pad: pad}
}

// SetArena implements ArenaScratch.
func (m *MaxPool2D) SetArena(a *tensor.Arena) { m.arena = a }

// CloneForInference implements ForwardContext.
func (m *MaxPool2D) CloneForInference() Layer {
	return &MaxPool2D{name: m.name, K: m.K, Stride: m.Stride, Pad: m.Pad}
}

// Name implements Layer.
func (m *MaxPool2D) Name() string { return m.name }

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

func (m *MaxPool2D) geom(in []int) tensor.ConvGeom {
	if len(in) != 3 {
		panic(fmt.Sprintf("nn: %s expects CHW sample shape, got %v", m.name, in))
	}
	return tensor.ConvGeom{InC: in[0], InH: in[1], InW: in[2], KH: m.K, KW: m.K, Stride: m.Stride, Pad: m.Pad}
}

// OutShape implements Layer.
func (m *MaxPool2D) OutShape(in []int) []int {
	g := m.geom(in)
	return []int{in[0], g.OutH(), g.OutW()}
}

// FLOPs implements Layer: one comparison per window element.
func (m *MaxPool2D) FLOPs(in []int) int64 {
	g := m.geom(in)
	return int64(in[0]) * int64(g.OutH()) * int64(g.OutW()) * int64(m.K*m.K)
}

// Forward implements Layer.
//
// The eval pass of a 2×2 pool — every pool in internal/models — takes the
// builtin max over every window that lies inside the plane: no
// data-dependent branch, where scanning for the maximum mispredicts on
// random activations at nearly every element. Builtin max differs from the
// definition (scan) in three cases only, and each leaves a result a rarely
// taken fix-up sends back to scan: a NaN (max propagates it, scan skips
// it), +0 (max prefers +0 to -0, scan keeps the first zero it meets) and
// -Inf (nothing exceeds it, so scan writes 0). Other window sizes, windows
// that reach into padding, and the training pass, which records argmax, run
// scan itself. Results are therefore scan's, bit for bit.
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkRank(m.name, x, 4)
	n, c := x.Dim(0), x.Dim(1)
	g := m.geom(x.Shape[1:])
	outH, outW := g.OutH(), g.OutW()
	inH, inW := x.Dim(2), x.Dim(3)
	if train {
		out := tensor.New(n, c, outH, outW)
		m.lastShape = append([]int(nil), x.Shape...)
		if cap(m.argmax) < out.Len() {
			m.argmax = make([]int32, out.Len())
		}
		m.argmax = m.argmax[:out.Len()]
		oi := 0
		for p := 0; p < n*c; p++ {
			plane := x.Data[p*inH*inW : (p+1)*inH*inW]
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					v, idx := m.scan(plane, inH, inW, oy*m.Stride-m.Pad, ox*m.Stride-m.Pad)
					if idx >= 0 {
						idx += int32(p * inH * inW)
					}
					out.Data[oi], m.argmax[oi] = v, idx
					oi++
				}
			}
		}
		return out
	}
	// Every output element is written below, so uninitialized arena storage
	// is safe.
	out := EvalTensor(m.arena, n, c, outH, outW)
	yLo, yHi := inside(inH, m.K, m.Stride, m.Pad, outH)
	xLo, xHi := inside(inW, m.K, m.Stride, m.Pad, outW)
	if m.K != 2 {
		yLo, yHi = outH, outH // no window takes maxInside
	}
	for p := 0; p < n*c; p++ {
		plane := x.Data[p*inH*inW : (p+1)*inH*inW]
		for oy := 0; oy < outH; oy++ {
			row := out.Data[(p*outH+oy)*outW : (p*outH+oy+1)*outW]
			iy0 := oy*m.Stride - m.Pad
			lo, hi := xLo, xHi
			if oy < yLo || oy >= yHi {
				lo, hi = outW, outW
			}
			for ox := 0; ox < lo; ox++ {
				row[ox], _ = m.scan(plane, inH, inW, iy0, ox*m.Stride-m.Pad)
			}
			m.maxInside(row[lo:hi], plane, inH, inW, iy0, lo*m.Stride-m.Pad)
			for ox := hi; ox < outW; ox++ {
				row[ox], _ = m.scan(plane, inH, inW, iy0, ox*m.Stride-m.Pad)
			}
		}
	}
	return out
}

// inside returns the output indices [lo, hi) on one axis whose windows lie
// within an input extent of n.
func inside(n, k, stride, pad, out int) (lo, hi int) {
	lo = min((pad+stride-1)/stride, out)
	hi = lo
	if n-k+pad >= 0 {
		hi = max(lo, min(out, (n-k+pad)/stride+1))
	}
	return lo, hi
}

// maxInside writes dst[j], the 2×2 pool of the window with top-left corner
// (iy0, ix0+j*Stride), for windows inside the plane (see Forward).
func (m *MaxPool2D) maxInside(dst, plane []float32, inH, inW, iy0, ix0 int) {
	if len(dst) == 0 {
		return // a border row: iy0 may lie outside the plane
	}
	r0 := plane[iy0*inW : (iy0+1)*inW]
	r1 := plane[(iy0+1)*inW : (iy0+2)*inW]
	for j := range dst {
		x := ix0 + j*m.Stride
		v := max(max(r0[x], r0[x+1]), max(r1[x], r1[x+1]))
		if needsScan(v) {
			v, _ = m.scan(plane, inH, inW, iy0, x)
		}
		dst[j] = v
	}
}

// needsScan reports whether a builtin max may differ from scan: for +0,
// -Inf and NaN. Rotating the sign bit into bit 0 maps +0 to 0, -Inf to
// 0xff000001 and every NaN above it, while -0 becomes 1 and +Inf
// 0xff000000, so one unsigned compare catches exactly the three.
func needsScan(v float32) bool {
	return bits.RotateLeft32(math.Float32bits(v), 1)-1 >= 0xff000000
}

// scan is the definition of the pool at the window with top-left corner
// (iy0, ix0): a row-major scan from -Inf that takes an element only when it
// is strictly greater than the best so far, skipping padding — so a NaN is
// never taken and of equal values (-0 and +0 included) the first wins. It
// returns the value with its index in plane, or 0 and -1 when no element
// exceeds -Inf (the window is all padding, -Inf or NaN).
func (m *MaxPool2D) scan(plane []float32, inH, inW, iy0, ix0 int) (float32, int32) {
	best, bestIdx := float32(math.Inf(-1)), int32(-1)
	for ky := 0; ky < m.K; ky++ {
		iy := iy0 + ky
		if iy < 0 || iy >= inH {
			continue
		}
		for kx := 0; kx < m.K; kx++ {
			ix := ix0 + kx
			if ix < 0 || ix >= inW {
				continue
			}
			idx := iy*inW + ix
			if v := plane[idx]; v > best {
				best, bestIdx = v, int32(idx)
			}
		}
	}
	if bestIdx < 0 {
		return 0, -1
	}
	return best, bestIdx
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(m.lastShape...)
	for i, v := range dout.Data {
		if idx := m.argmax[i]; idx >= 0 {
			dx.Data[idx] += v
		}
	}
	return dx
}

// AvgPool2D is an average pooling layer over NCHW input. Padding is not
// supported; the networks in this repository only use it for final
// downsampling where no padding is needed.
type AvgPool2D struct {
	name   string
	K      int
	Stride int

	lastShape []int
	arena     *tensor.Arena
}

// NewAvgPool2D constructs an average pooling layer with a square window.
func NewAvgPool2D(name string, k, stride int) *AvgPool2D {
	return &AvgPool2D{name: name, K: k, Stride: stride}
}

// SetArena implements ArenaScratch.
func (a *AvgPool2D) SetArena(ar *tensor.Arena) { a.arena = ar }

// CloneForInference implements ForwardContext.
func (a *AvgPool2D) CloneForInference() Layer {
	return &AvgPool2D{name: a.name, K: a.K, Stride: a.Stride}
}

// Name implements Layer.
func (a *AvgPool2D) Name() string { return a.name }

// Params implements Layer.
func (a *AvgPool2D) Params() []*Param { return nil }

func (a *AvgPool2D) geom(in []int) tensor.ConvGeom {
	return tensor.ConvGeom{InC: in[0], InH: in[1], InW: in[2], KH: a.K, KW: a.K, Stride: a.Stride}
}

// OutShape implements Layer.
func (a *AvgPool2D) OutShape(in []int) []int {
	g := a.geom(in)
	return []int{in[0], g.OutH(), g.OutW()}
}

// FLOPs implements Layer.
func (a *AvgPool2D) FLOPs(in []int) int64 {
	g := a.geom(in)
	return int64(in[0]) * int64(g.OutH()) * int64(g.OutW()) * int64(a.K*a.K)
}

// Forward implements Layer.
func (a *AvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkRank(a.name, x, 4)
	n, c := x.Dim(0), x.Dim(1)
	g := a.geom(x.Shape[1:])
	outH, outW := g.OutH(), g.OutW()
	inH, inW := x.Dim(2), x.Dim(3)
	var out *tensor.Tensor
	if train {
		out = tensor.New(n, c, outH, outW)
	} else {
		out = EvalTensor(a.arena, n, c, outH, outW) // every element written below
	}
	inv := 1 / float32(a.K*a.K)
	oi := 0
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			plane := x.Data[(b*c+ch)*inH*inW:]
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					var s float32
					for ky := 0; ky < a.K; ky++ {
						iy := oy*a.Stride + ky
						for kx := 0; kx < a.K; kx++ {
							s += plane[iy*inW+ox*a.Stride+kx]
						}
					}
					out.Data[oi] = s * inv
					oi++
				}
			}
		}
	}
	if train {
		a.lastShape = append([]int(nil), x.Shape...)
	}
	return out
}

// Backward implements Layer.
func (a *AvgPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(a.lastShape...)
	n, c := a.lastShape[0], a.lastShape[1]
	inH, inW := a.lastShape[2], a.lastShape[3]
	g := a.geom(a.lastShape[1:])
	outH, outW := g.OutH(), g.OutW()
	inv := 1 / float32(a.K*a.K)
	oi := 0
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			plane := dx.Data[(b*c+ch)*inH*inW:]
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					gvp := float32(dout.Data[oi] * inv)
					for ky := 0; ky < a.K; ky++ {
						iy := oy*a.Stride + ky
						for kx := 0; kx < a.K; kx++ {
							plane[iy*inW+ox*a.Stride+kx] += gvp
						}
					}
					oi++
				}
			}
		}
	}
	return dx
}
