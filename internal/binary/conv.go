package binary

import (
	"fmt"

	"lcrs/internal/nn"
	"lcrs/internal/tensor"
)

// Conv2D is a training-time binary convolution. The forward pass computes
// Eq. (4): I (*) W ~= (sign(I) (*) sign(W)) . K . alpha, keeping
// full-precision shadow weights that the optimizer updates (Algorithm 1
// lines 8-13). Deployment uses PackedConv2D built from a trained Conv2D.
type Conv2D struct {
	name   string
	InC    int
	OutC   int
	KH, KW int
	Stride int
	Pad    int
	Weight *nn.Param // full-precision shadow weights (OutC, InC, KH, KW)
	Bias   *nn.Param // (OutC), kept full precision

	// caches from the last training forward
	lastInput *tensor.Tensor
	lastCols  []float32 // sign(cols) scaled by K, per sample
	lastRaw   []float32 // raw im2col values (for the input STE mask)
	lastK     []float32 // input scales per sample, OutH*OutW each
	lastAlpha []float32
	lastGeom  tensor.ConvGeom
}

var _ nn.Layer = (*Conv2D)(nil)

// NewConv2D constructs a binary convolution layer with Kaiming-initialized
// shadow weights.
func NewConv2D(name string, g *tensor.RNG, inC, outC, kh, kw, stride, pad int) *Conv2D {
	c := &Conv2D{
		name: name, InC: inC, OutC: outC, KH: kh, KW: kw,
		Stride: stride, Pad: pad,
	}
	c.Weight = nn.NewParam(name+".weight", g.KaimingConv(outC, inC, kh, kw))
	c.Bias = nn.NewParam(name+".bias", tensor.New(outC))
	return c
}

// Name implements nn.Layer.
func (c *Conv2D) Name() string { return c.name }

// Params implements nn.Layer.
func (c *Conv2D) Params() []*nn.Param { return []*nn.Param{c.Weight, c.Bias} }

func (c *Conv2D) geom(in []int) tensor.ConvGeom {
	if len(in) != 3 {
		panic(fmt.Sprintf("binary: %s expects CHW sample shape, got %v", c.name, in))
	}
	if in[0] != c.InC {
		panic(fmt.Sprintf("binary: %s expects %d input channels, got %d", c.name, c.InC, in[0]))
	}
	return tensor.ConvGeom{
		InC: c.InC, InH: in[1], InW: in[2],
		KH: c.KH, KW: c.KW, Stride: c.Stride, Pad: c.Pad,
	}
}

// OutShape implements nn.Layer.
func (c *Conv2D) OutShape(in []int) []int {
	g := c.geom(in)
	return []int{c.OutC, g.OutH(), g.OutW()}
}

// xnorFLOPs charges outputs binary dot products of length k. Binary dot
// products replace multiply-adds with XNOR+popcount over 64-wide lanes; we
// charge 2/64 of the float cost for the binary part plus the scaling
// multiplies, matching the 58x ideal speedup XNOR-Net reports for the
// convolution itself.
func xnorFLOPs(outputs, k int) int64 {
	binOps := int64(outputs) * int64(2*k/64+1)
	scaleOps := int64(outputs) * 2
	return binOps + scaleOps
}

// FLOPs implements nn.Layer; see xnorFLOPs for the 64-lane accounting.
func (c *Conv2D) FLOPs(in []int) int64 {
	g := c.geom(in)
	return xnorFLOPs(c.OutC*g.OutH()*g.OutW(), c.InC*c.KH*c.KW)
}

// Forward implements nn.Layer. Training and eval run the same math; only
// training keeps its im2col matrices, in buffers reused across steps, for
// Backward. Eval works in local buffers and writes nothing to the layer, so
// eval forwards may run concurrently. Inference answers come from
// PackedConv2D instead, which agrees with this forward to float rounding.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	nn0 := x.Dim(0)
	g := c.geom(x.Shape[1:])
	outH, outW := g.OutH(), g.OutW()
	p := outH * outW
	k := c.InC * c.KH * c.KW

	// Binarize weights: W~ = alpha * sign(W).
	wEst := tensor.New(c.OutC, k)
	alphas := EstimateWeights(wEst, c.Weight.Value.Reshape(c.OutC, k))

	out := tensor.New(nn0, c.OutC, outH, outW)
	var rawAll, colsAll, kAll []float32
	if train {
		rawAll, colsAll, kAll = c.lastRaw, c.lastCols, c.lastK
	}
	rawAll, colsAll, kAll = grow(rawAll, nn0*p*k), grow(colsAll, nn0*p*k), grow(kAll, nn0*p)

	for i := 0; i < nn0; i++ {
		img := x.Batch(i).Data
		raw := rawAll[i*p*k : (i+1)*p*k]
		g.Im2Col(raw, img)
		ks := InputScales(g, img)
		copy(kAll[i*p:(i+1)*p], ks)

		// cols~ = K_p * sign(raw): fold the input scale into the sign
		// matrix so one float matmul realizes Eq. (4).
		cols := colsAll[i*p*k : (i+1)*p*k]
		for pos := 0; pos < p; pos++ {
			scale := ks[pos]
			src := raw[pos*k : (pos+1)*k]
			dst := cols[pos*k : (pos+1)*k]
			for j, v := range src {
				if v < 0 {
					dst[j] = -scale
				} else {
					dst[j] = scale
				}
			}
		}
		colsT := tensor.FromSlice(cols, p, k)
		oc := tensor.MatMulTransB(wEst, colsT) // OutC x P
		ob := out.Batch(i)
		copy(ob.Data, oc.Data)
		for ch := 0; ch < c.OutC; ch++ {
			b := c.Bias.Value.Data[ch]
			plane := ob.Data[ch*p : (ch+1)*p]
			for j := range plane {
				plane[j] += b
			}
		}
	}
	if train {
		c.lastInput, c.lastRaw, c.lastCols, c.lastK = x, rawAll, colsAll, kAll
		c.lastAlpha, c.lastGeom = alphas, g
	}
	return out
}

// Backward implements nn.Layer. Gradients flow through the binarization via
// the straight-through estimator: for weights, Eq. (6); for inputs,
// d cols_i = d cols~_i * K_p * 1_{|raw_i| <= 1}. K and alpha are treated as
// constants, as in the XNOR-Net reference implementation.
func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if c.lastInput == nil {
		panic(fmt.Sprintf("binary: %s Backward before training Forward", c.name))
	}
	x := c.lastInput
	nn0 := x.Dim(0)
	g := c.lastGeom
	p := g.OutH() * g.OutW()
	k := c.InC * c.KH * c.KW

	w2d := c.Weight.Value.Reshape(c.OutC, k)
	wEst := tensor.New(c.OutC, k)
	EstimateWeights(wEst, w2d)

	dEstTotal := tensor.New(c.OutC, k)
	dx := tensor.New(x.Shape...)

	for i := 0; i < nn0; i++ {
		doutI := tensor.FromSlice(dout.Batch(i).Data, c.OutC, p)
		cols := tensor.FromSlice(c.lastCols[i*p*k:(i+1)*p*k], p, k)
		raw := c.lastRaw[i*p*k : (i+1)*p*k]
		ks := c.lastK[i*p : (i+1)*p]

		// dW~ += dOut (OutC x P) x cols~ (P x K)
		dwi := tensor.MatMul(doutI, cols)
		dEstTotal.AddScaled(1, dwi)

		// dcols~ (P x K) = dOut^T (P x OutC) x W~ (OutC x K)
		dcolsEst := tensor.MatMulTransA(doutI, wEst)

		// STE through the input sign, with the K scale.
		dcols := dcolsEst.Data
		for pos := 0; pos < p; pos++ {
			scale := ks[pos]
			base := pos * k
			for j := 0; j < k; j++ {
				r := raw[base+j]
				if r >= -1 && r <= 1 {
					dcols[base+j] *= scale
				} else {
					dcols[base+j] = 0
				}
			}
		}
		g.Col2Im(dx.Batch(i).Data, dcols)

		for ch := 0; ch < c.OutC; ch++ {
			var s float32
			for _, v := range doutI.Row(ch) {
				s += v
			}
			c.Bias.EnsureGrad().Data[ch] += s
		}
	}

	WeightGradThrough(
		c.Weight.EnsureGrad().Reshape(c.OutC, k),
		dEstTotal, w2d, c.lastAlpha,
	)
	return dx
}
