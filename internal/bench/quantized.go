package bench

import (
	"fmt"
	"math"

	"lcrs/internal/collab"
	"lcrs/internal/nn"
	"lcrs/internal/tensor"
)

// k-bit weight quantization for the precision ablation (AblationBits), the
// natural generalization of the paper's 1-bit binary branch and the
// direction its conclusion points at ("expand LCRS on more complex
// networks and images"). Weights are quantized per output filter to k-bit
// symmetric integer grids with a float scale; activations stay in float32.
// k=1 degenerates to the sign/alpha scheme of the binary package (weight
// side), and larger k trades bytes for accuracy. The grid (collab.Levels)
// is the one the offload codecs apply to activations.

// estimateWeights writes the k-bit quantized estimate of w into dst and
// returns the per-output-filter scales. For k=1 the estimate is
// alpha*sign(w) with alpha = mean|w| (the XNOR-Net choice); for k>1 the
// scale maps the filter's max magnitude onto the top grid level and values
// round to the nearest level.
func estimateWeights(dst, w *tensor.Tensor, k int) []float32 {
	if k < 1 || k > collab.MaxBits {
		panic(fmt.Sprintf("bench: bits %d out of [1,%d]", k, collab.MaxBits))
	}
	outC := w.Dim(0)
	n := w.Len() / outC
	scales := make([]float32, outC)
	levels := float64(collab.Levels(k))
	for o := 0; o < outC; o++ {
		src := w.Data[o*n : (o+1)*n]
		out := dst.Data[o*n : (o+1)*n]
		if k == 1 {
			var sum float64
			for _, v := range src {
				sum += math.Abs(float64(v))
			}
			alpha := float32(sum / float64(n))
			scales[o] = alpha
			for i, v := range src {
				if v < 0 {
					out[i] = -alpha
				} else {
					out[i] = alpha
				}
			}
			continue
		}
		var mx float64
		for _, v := range src {
			if a := math.Abs(float64(v)); a > mx {
				mx = a
			}
		}
		if mx == 0 {
			scales[o] = 0
			for i := range out {
				out[i] = 0
			}
			continue
		}
		scale := float32(mx / levels)
		scales[o] = scale
		for i, v := range src {
			q := math.Round(float64(v) / float64(scale))
			if q > levels {
				q = levels
			}
			if q < -levels {
				q = -levels
			}
			out[i] = float32(q) * scale
		}
	}
	return scales
}

// quantSizeBytes returns the deployed footprint of a quantized weight tensor:
// k bits per weight plus one float scale per output filter.
func quantSizeBytes(w *tensor.Tensor, k int) int64 {
	bits := int64(w.Len()) * int64(k)
	return (bits+7)/8 + int64(w.Dim(0))*4
}

// quantConv2D is a k-bit weight-quantized convolution with full-precision
// activations: the forward pass convolves with the quantized estimate, the
// backward pass flows straight through the quantizer into the
// full-precision shadow weights.
type quantConv2D struct {
	name   string
	Bits   int
	InC    int
	OutC   int
	KH, KW int
	Stride int
	Pad    int
	Weight *nn.Param
	Bias   *nn.Param

	lastInput *tensor.Tensor
	lastCols  []float32
	lastGeom  tensor.ConvGeom
}

var _ nn.Layer = (*quantConv2D)(nil)

// newQuantConv2D constructs a k-bit quantized convolution.
func newQuantConv2D(name string, g *tensor.RNG, bits, inC, outC, kh, kw, stride, pad int) *quantConv2D {
	if bits < 1 || bits > collab.MaxBits {
		panic(fmt.Sprintf("bench: bits %d out of [1,%d]", bits, collab.MaxBits))
	}
	c := &quantConv2D{
		name: name, Bits: bits, InC: inC, OutC: outC, KH: kh, KW: kw,
		Stride: stride, Pad: pad,
	}
	c.Weight = nn.NewParam(name+".weight", g.KaimingConv(outC, inC, kh, kw))
	c.Bias = nn.NewParam(name+".bias", tensor.New(outC))
	c.Bias.NoDecay = true
	return c
}

// Name implements nn.Layer.
func (c *quantConv2D) Name() string { return c.name }

// Params implements nn.Layer.
func (c *quantConv2D) Params() []*nn.Param { return []*nn.Param{c.Weight, c.Bias} }

func (c *quantConv2D) geom(in []int) tensor.ConvGeom {
	if len(in) != 3 || in[0] != c.InC {
		panic(fmt.Sprintf("bench: %s expects (%d,H,W) sample shape, got %v", c.name, c.InC, in))
	}
	return tensor.ConvGeom{InC: c.InC, InH: in[1], InW: in[2], KH: c.KH, KW: c.KW, Stride: c.Stride, Pad: c.Pad}
}

// OutShape implements nn.Layer.
func (c *quantConv2D) OutShape(in []int) []int {
	g := c.geom(in)
	return []int{c.OutC, g.OutH(), g.OutW()}
}

// FLOPs implements nn.Layer. Integer multiply-accumulate at k bits costs a
// fraction of a float op on wide SIMD words; charge proportionally.
func (c *quantConv2D) FLOPs(in []int) int64 {
	g := c.geom(in)
	k := int64(c.InC * c.KH * c.KW)
	out := int64(c.OutC) * int64(g.OutH()) * int64(g.OutW())
	full := out * (2*k + 1)
	return full * int64(c.Bits) / 32
}

// SizeBytes returns the deployed size of the layer.
func (c *quantConv2D) SizeBytes() int64 {
	return quantSizeBytes(c.Weight.Value, c.Bits) + int64(c.OutC)*4
}

// Forward implements nn.Layer.
func (c *quantConv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Dim(0)
	g := c.geom(x.Shape[1:])
	p := g.OutH() * g.OutW()
	k := c.InC * c.KH * c.KW

	kk := c.Weight.Value.Reshape(c.OutC, k)
	wEst := tensor.New(c.OutC, k)
	estimateWeights(wEst, kk, c.Bits)

	out := tensor.New(n, c.OutC, g.OutH(), g.OutW())
	colsAll := make([]float32, n*p*k)
	for i := 0; i < n; i++ {
		cols := colsAll[i*p*k : (i+1)*p*k]
		g.Im2Col(cols, x.Batch(i).Data)
		oc := tensor.MatMulTransB(wEst, tensor.FromSlice(cols, p, k))
		ob := out.Batch(i)
		copy(ob.Data, oc.Data)
		for ch := 0; ch < c.OutC; ch++ {
			bias := c.Bias.Value.Data[ch]
			plane := ob.Data[ch*p : (ch+1)*p]
			for j := range plane {
				plane[j] += bias
			}
		}
	}
	if train {
		c.lastInput = x
		c.lastCols = colsAll
		c.lastGeom = g
	}
	return out
}

// Backward implements nn.Layer with a straight-through estimator: the
// gradient with respect to the quantized estimate passes unchanged into
// the shadow weights.
func (c *quantConv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if c.lastInput == nil {
		panic(fmt.Sprintf("bench: %s Backward before training Forward", c.name))
	}
	x := c.lastInput
	n := x.Dim(0)
	g := c.lastGeom
	p := g.OutH() * g.OutW()
	k := c.InC * c.KH * c.KW

	w2d := c.Weight.Value.Reshape(c.OutC, k)
	wEst := tensor.New(c.OutC, k)
	estimateWeights(wEst, w2d, c.Bits)
	dw := c.Weight.EnsureGrad().Reshape(c.OutC, k)
	dx := tensor.New(x.Shape...)

	for i := 0; i < n; i++ {
		doutI := tensor.FromSlice(dout.Batch(i).Data, c.OutC, p)
		cols := tensor.FromSlice(c.lastCols[i*p*k:(i+1)*p*k], p, k)
		dwi := tensor.MatMul(doutI, cols)
		dw.AddScaled(1, dwi) // straight-through
		dcols := tensor.MatMulTransA(doutI, wEst)
		g.Col2Im(dx.Batch(i).Data, dcols.Data)
		for ch := 0; ch < c.OutC; ch++ {
			var s float32
			for _, v := range doutI.Row(ch) {
				s += v
			}
			c.Bias.EnsureGrad().Data[ch] += s
		}
	}
	return dx
}

// quantLinear is a k-bit weight-quantized dense layer.
type quantLinear struct {
	name    string
	Bits    int
	In, Out int
	Weight  *nn.Param
	Bias    *nn.Param

	lastInput *tensor.Tensor
}

var _ nn.Layer = (*quantLinear)(nil)

// newQuantLinear constructs a k-bit quantized dense layer.
func newQuantLinear(name string, g *tensor.RNG, bits, in, out int) *quantLinear {
	if bits < 1 || bits > collab.MaxBits {
		panic(fmt.Sprintf("bench: bits %d out of [1,%d]", bits, collab.MaxBits))
	}
	l := &quantLinear{name: name, Bits: bits, In: in, Out: out}
	l.Weight = nn.NewParam(name+".weight", g.KaimingLinear(out, in))
	l.Bias = nn.NewParam(name+".bias", tensor.New(out))
	l.Bias.NoDecay = true
	return l
}

// Name implements nn.Layer.
func (l *quantLinear) Name() string { return l.name }

// Params implements nn.Layer.
func (l *quantLinear) Params() []*nn.Param { return []*nn.Param{l.Weight, l.Bias} }

// OutShape implements nn.Layer.
func (l *quantLinear) OutShape(in []int) []int {
	n := 1
	for _, d := range in {
		n *= d
	}
	if n != l.In {
		panic(fmt.Sprintf("bench: %s expects %d features, got %v", l.name, l.In, in))
	}
	return []int{l.Out}
}

// FLOPs implements nn.Layer.
func (l *quantLinear) FLOPs(in []int) int64 {
	full := int64(l.Out) * int64(2*l.In+1)
	return full * int64(l.Bits) / 32
}

// SizeBytes returns the deployed size of the layer.
func (l *quantLinear) SizeBytes() int64 {
	return quantSizeBytes(l.Weight.Value, l.Bits) + int64(l.Out)*4
}

// Forward implements nn.Layer.
func (l *quantLinear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	wEst := tensor.New(l.Out, l.In)
	estimateWeights(wEst, l.Weight.Value, l.Bits)
	out := tensor.MatMulTransB(x, wEst)
	for i := 0; i < out.Dim(0); i++ {
		row := out.Row(i)
		for j := range row {
			row[j] += l.Bias.Value.Data[j]
		}
	}
	if train {
		l.lastInput = x
	}
	return out
}

// Backward implements nn.Layer (straight-through into shadow weights).
func (l *quantLinear) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if l.lastInput == nil {
		panic(fmt.Sprintf("bench: %s Backward before training Forward", l.name))
	}
	dw := tensor.MatMulTransA(dout, l.lastInput)
	l.Weight.EnsureGrad().AddScaled(1, dw)
	for i := 0; i < dout.Dim(0); i++ {
		for j, v := range dout.Row(i) {
			l.Bias.EnsureGrad().Data[j] += v
		}
	}
	wEst := tensor.New(l.Out, l.In)
	estimateWeights(wEst, l.Weight.Value, l.Bits)
	return tensor.MatMul(dout, wEst)
}
