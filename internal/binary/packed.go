package binary

import (
	"fmt"

	"lcrs/internal/nn"
	"lcrs/internal/tensor"
)

// PackedConv2D is the deployment form of a trained binary convolution: one
// bit per weight plus a float scale per filter. Its forward pass is the
// XNOR+popcount kernel the paper's WASM library runs on the mobile web
// browser. It is inference-only.
type PackedConv2D struct {
	Name   string
	InC    int
	OutC   int
	KH, KW int
	Stride int
	Pad    int
	Alpha  []float32     // per-filter scale
	Bias   []float32     // per-filter bias
	W      *PackedMatrix // OutC rows of InC*KH*KW bits
}

// NewPackedConv2D builds a packed convolution from its geometry alone, with
// zeroed scales, biases and sign bits: the skeleton a browser bundle's
// packed section is decoded into, with no float weights in between.
func NewPackedConv2D(name string, inC, outC, kh, kw, stride, pad int) *PackedConv2D {
	return &PackedConv2D{
		Name: name, InC: inC, OutC: outC, KH: kh, KW: kw,
		Stride: stride, Pad: pad,
		Alpha: make([]float32, outC),
		Bias:  make([]float32, outC),
		W:     NewPackedMatrix(outC, inC*kh*kw),
	}
}

// PackConv2D converts a trained training-time binary conv into its packed
// deployment form.
func PackConv2D(c *Conv2D) *PackedConv2D {
	p := NewPackedConv2D(c.name, c.InC, c.OutC, c.KH, c.KW, c.Stride, c.Pad)
	p.Alpha = FilterAlphas(c.Weight.Value)
	copy(p.Bias, c.Bias.Value.Data)
	w2d := c.Weight.Value.Reshape(c.OutC, p.W.N)
	for o := 0; o < c.OutC; o++ {
		p.W.PackRow(o, w2d.Row(o))
	}
	return p
}

// Geom returns the convolution geometry for a CHW input shape.
func (p *PackedConv2D) Geom(in []int) tensor.ConvGeom {
	if len(in) != 3 || in[0] != p.InC {
		panic(fmt.Sprintf("binary: %s expects (%d,H,W) sample shape, got %v", p.Name, p.InC, in))
	}
	return tensor.ConvGeom{InC: p.InC, InH: in[1], InW: in[2], KH: p.KH, KW: p.KW, Stride: p.Stride, Pad: p.Pad}
}

// OutShape returns the per-sample output shape.
func (p *PackedConv2D) OutShape(in []int) []int {
	g := p.Geom(in)
	return []int{p.OutC, g.OutH(), g.OutW()}
}

// SizeBytes returns the deployed size: packed bits + alpha + bias floats.
func (p *PackedConv2D) SizeBytes() int64 {
	return p.W.SizeBytes() + int64(len(p.Alpha))*4 + int64(len(p.Bias))*4
}

// Forward runs the packed XNOR convolution on a float NCHW input,
// binarizing the input on the fly with the K scaling matrix (Eq. 4).
func (p *PackedConv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	n := x.Dim(0)
	g := p.Geom(x.Shape[1:])
	outH, outW := g.OutH(), g.OutW()
	pp := outH * outW
	k := p.InC * p.KH * p.KW

	out := tensor.New(n, p.OutC, outH, outW)
	raw := make([]float32, pp*k)
	cols := NewPackedMatrix(pp, k)
	for i := 0; i < n; i++ {
		img := x.Batch(i).Data
		g.Im2Col(raw, img)
		ks := InputScales(g, img)
		// Each receptive field packs into its own row of cols.
		tensor.ParallelFor(pp, func(lo, hi int) {
			for pos := lo; pos < hi; pos++ {
				cols.PackRow(pos, raw[pos*k:(pos+1)*k])
			}
		})
		// The XNOR+popcount sweep is embarrassingly parallel across output
		// channels: every channel writes only its own plane, and each
		// element is one integer popcount dot plus a float scale, so the
		// result is chunking-independent.
		ob := out.Batch(i)
		tensor.ParallelFor(p.OutC, func(lo, hi int) {
			for o := lo; o < hi; o++ {
				wrow := p.W.Row(o)
				alpha := p.Alpha[o]
				bias := p.Bias[o]
				plane := ob.Data[o*pp : (o+1)*pp]
				for pos := 0; pos < pp; pos++ {
					dot := XnorDot(wrow, cols.Row(pos), k)
					plane[pos] = alpha*ks[pos]*float32(dot) + bias
				}
			}
		})
	}
	return out
}

// PackedLinear is the deployment form of a trained binary dense layer.
type PackedLinear struct {
	Name    string
	In, Out int
	Alpha   []float32
	Bias    []float32
	W       *PackedMatrix // Out rows of In bits
}

// NewPackedLinear builds a packed dense layer from its dimensions alone,
// zeroed like NewPackedConv2D.
func NewPackedLinear(name string, in, out int) *PackedLinear {
	return &PackedLinear{
		Name: name, In: in, Out: out,
		Alpha: make([]float32, out),
		Bias:  make([]float32, out),
		W:     NewPackedMatrix(out, in),
	}
}

// PackLinear converts a trained binary dense layer into packed form.
func PackLinear(l *Linear) *PackedLinear {
	p := NewPackedLinear(l.name, l.In, l.Out)
	p.Alpha = FilterAlphas(l.Weight.Value)
	copy(p.Bias, l.Bias.Value.Data)
	for o := 0; o < l.Out; o++ {
		p.W.PackRow(o, l.Weight.Value.Row(o))
	}
	return p
}

// OutShape returns the per-sample output shape.
func (p *PackedLinear) OutShape(in []int) []int {
	n := 1
	for _, d := range in {
		n *= d
	}
	if n != p.In {
		panic(fmt.Sprintf("binary: %s expects %d input features, got shape %v", p.Name, p.In, in))
	}
	return []int{p.Out}
}

// SizeBytes returns the deployed size: packed bits + alpha + bias floats.
func (p *PackedLinear) SizeBytes() int64 {
	return p.W.SizeBytes() + int64(len(p.Alpha))*4 + int64(len(p.Bias))*4
}

// Forward runs the packed XNOR dense layer on (batch, In) float input.
func (p *PackedLinear) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != p.In {
		panic(fmt.Sprintf("binary: %s expects (batch,%d) input, got %v", p.Name, p.In, x.Shape))
	}
	n := x.Dim(0)
	out := tensor.New(n, p.Out)
	xrow := make([]uint64, wordsFor(p.In))
	for i := 0; i < n; i++ {
		row := x.Row(i)
		beta := RowScale(row)
		PackSigns(xrow, row)
		dst := out.Row(i)
		for o := 0; o < p.Out; o++ {
			dot := XnorDot(p.W.Row(o), xrow, p.In)
			dst[o] = p.Alpha[o]*beta*float32(dot) + p.Bias[o]
		}
	}
	return out
}

// PackedLayer presents a packed layer — exactly one of Conv and Linear is
// set — as an inference-only nn.Layer, so a branch that is built packed
// (models.BuildClient) sits in the same nn.Sequential, and under the same
// walks, as one built with float shadow weights. It has no parameters: what
// a packed layer holds is not trainable.
type PackedLayer struct {
	Conv   *PackedConv2D
	Linear *PackedLinear
}

var _ nn.Layer = PackedLayer{}

// Weights returns the layer's per-filter scales and biases and its sign-bit
// matrix — the three things a bundle's packed section carries.
func (l PackedLayer) Weights() (alpha, bias []float32, w *PackedMatrix) {
	if l.Conv != nil {
		return l.Conv.Alpha, l.Conv.Bias, l.Conv.W
	}
	return l.Linear.Alpha, l.Linear.Bias, l.Linear.W
}

// Name implements nn.Layer.
func (l PackedLayer) Name() string {
	if l.Conv != nil {
		return l.Conv.Name
	}
	return l.Linear.Name
}

// Forward implements nn.Layer for eval forwards only.
func (l PackedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		panic(fmt.Sprintf("binary: %s is packed: it cannot run a training forward", l.Name()))
	}
	if l.Conv != nil {
		return l.Conv.Forward(x)
	}
	return l.Linear.Forward(x)
}

// Backward implements nn.Layer by panicking: packed layers do not train.
func (l PackedLayer) Backward(*tensor.Tensor) *tensor.Tensor {
	panic(fmt.Sprintf("binary: %s is packed: it has no Backward", l.Name()))
}

// Params implements nn.Layer.
func (l PackedLayer) Params() []*nn.Param { return nil }

// OutShape implements nn.Layer.
func (l PackedLayer) OutShape(in []int) []int {
	if l.Conv != nil {
		return l.Conv.OutShape(in)
	}
	return l.Linear.OutShape(in)
}

// FLOPs implements nn.Layer with the accounting of the float-shadow layers.
func (l PackedLayer) FLOPs(in []int) int64 {
	if l.Conv != nil {
		g := l.Conv.Geom(in)
		return xnorFLOPs(l.Conv.OutC*g.OutH()*g.OutW(), l.Conv.W.N)
	}
	return xnorFLOPs(l.Linear.Out, l.Linear.In)
}

// SizeBytes returns the deployed size of the layer.
func (l PackedLayer) SizeBytes() int64 {
	if l.Conv != nil {
		return l.Conv.SizeBytes()
	}
	return l.Linear.SizeBytes()
}
