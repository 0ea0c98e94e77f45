package nn

import (
	"fmt"

	"lcrs/internal/tensor"
)

// Conv2D is a full-precision 2-D convolution over NCHW input, implemented
// as im2col followed by matrix multiplication.
type Conv2D struct {
	name    string
	InC     int
	OutC    int
	KH, KW  int
	Stride  int
	Pad     int
	Weight  *Param // (OutC, InC, KH, KW)
	Bias    *Param // (OutC)
	UseBias bool

	// caches from the last training forward pass; lastCols (the im2col
	// matrix per batch element, concatenated) must survive until Backward.
	lastInput *tensor.Tensor
	lastCols  []float32
	lastGeom  tensor.ConvGeom

	// Eval-path state, reused across forwards: panel holds the K x convNC
	// pack buffers, one per group of samples a batch is split into
	// (persistent here, or carved from arena when one is installed);
	// states holds the fused-GEMM state of each group (grown once to the
	// worker count; a single sample uses the first), kern the persistent
	// ParallelFor body over the groups and evalIn/evalOut the batch it
	// reads during one Forward call; arena is the serving replica's
	// scratch arena (nil outside CloneForServing replicas). Layers are
	// therefore not safe for concurrent Forward calls; callers that share
	// a model across goroutines must either serialize or run each
	// goroutine on its own CloneForInference copy (the edge server's
	// replica pool does the latter).
	panel           []float32
	states          []tensor.ConvGemmState
	kern            func(lo, hi int)
	evalIn, evalOut *tensor.Tensor
	arena           *tensor.Arena
}

// SetArena implements ArenaScratch: eval outputs and the pack panel are
// served from a, making steady-state eval forwards allocation-free.
func (c *Conv2D) SetArena(a *tensor.Arena) { c.arena = a }

// CloneForInference implements ForwardContext: the clone shares Weight and
// Bias with the receiver but owns private scratch state, so eval-mode
// Forward calls on the clone and the original may run concurrently.
func (c *Conv2D) CloneForInference() Layer {
	return &Conv2D{
		name: c.name, InC: c.InC, OutC: c.OutC, KH: c.KH, KW: c.KW,
		Stride: c.Stride, Pad: c.Pad,
		Weight: c.Weight, Bias: c.Bias, UseBias: c.UseBias,
	}
}

// NewConv2D constructs a convolution layer with Kaiming-initialized
// weights. A nil g draws nothing and leaves the weights zero: the skeleton
// of a layer whose weights are about to be loaded.
func NewConv2D(name string, g *tensor.RNG, inC, outC, kh, kw, stride, pad int) *Conv2D {
	c := &Conv2D{
		name: name, InC: inC, OutC: outC, KH: kh, KW: kw,
		Stride: stride, Pad: pad, UseBias: true,
	}
	var w *tensor.Tensor
	if g != nil {
		w = g.KaimingConv(outC, inC, kh, kw)
	} else {
		w = tensor.New(outC, inC, kh, kw)
	}
	c.Weight = NewParam(name+".weight", w)
	c.Bias = NewParam(name+".bias", tensor.New(outC))
	c.Bias.NoDecay = true
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	if c.UseBias {
		return []*Param{c.Weight, c.Bias}
	}
	return []*Param{c.Weight}
}

// OutShape implements Layer.
func (c *Conv2D) OutShape(in []int) []int {
	g := c.geom(in)
	return []int{c.OutC, g.OutH(), g.OutW()}
}

// FLOPs implements Layer: 2*K multiply-adds per output element plus bias.
func (c *Conv2D) FLOPs(in []int) int64 {
	g := c.geom(in)
	k := int64(c.InC * c.KH * c.KW)
	out := int64(c.OutC) * int64(g.OutH()) * int64(g.OutW())
	return out * (2*k + 1)
}

func (c *Conv2D) geom(in []int) tensor.ConvGeom {
	if len(in) != 3 {
		panic(fmt.Sprintf("nn: %s expects CHW sample shape, got %v", c.name, in))
	}
	if in[0] != c.InC {
		panic(fmt.Sprintf("nn: %s expects %d input channels, got %d", c.name, c.InC, in[0]))
	}
	return tensor.ConvGeom{
		InC: c.InC, InH: in[1], InW: in[2],
		KH: c.KH, KW: c.KW, Stride: c.Stride, Pad: c.Pad,
	}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkRank(c.name, x, 4)
	n := x.Dim(0)
	g := c.geom(x.Shape[1:])
	outH, outW := g.OutH(), g.OutW()
	p := outH * outW
	k := c.InC * c.KH * c.KW

	if !train {
		return c.forwardFused(x, g, n, p, k, outH, outW)
	}

	// Training materializes the cols matrix: Backward needs it.
	out := tensor.New(n, c.OutC, outH, outW)
	wd := c.Weight.Value.Data // (OutC, K) row-major

	if cap(c.lastCols) < n*p*k {
		c.lastCols = make([]float32, n*p*k)
	}
	colsAll := c.lastCols[:n*p*k]
	// Unfold every sample in parallel: chunk i writes only its own
	// colsAll region.
	tensor.ParallelFor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g.Im2Col(colsAll[i*p*k:(i+1)*p*k], x.Batch(i).Data)
		}
	})
	// GEMM across (sample, output channel) rows: each row of the output —
	// (OutC x K) x (P x K)^T, one NCHW plane — is an independent dot-product
	// sweep over contiguous memory, so rows parallelize with no shared
	// writes and a chunking-independent accumulation order.
	tensor.ParallelFor(n*c.OutC, func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			i, o := idx/c.OutC, idx%c.OutC
			cols := colsAll[i*p*k : (i+1)*p*k]
			wrow := wd[o*k : (o+1)*k]
			var b float32
			if c.UseBias {
				b = c.Bias.Value.Data[o]
			}
			plane := out.Data[idx*p : (idx+1)*p]
			for pos := 0; pos < p; pos++ {
				crow := cols[pos*k : (pos+1)*k]
				var s float32
				for j, wv := range wrow {
					s += float32(wv * crow[j])
				}
				plane[pos] = s + b
			}
		}
	})
	c.lastInput, c.lastCols, c.lastGeom = x, colsAll, g
	return out
}

// forwardFused is the eval-mode convolution: im2col panels are packed and
// consumed tile-by-tile (tensor.ConvGemmState), so the full cols matrix is
// never materialized. Per output element the accumulation is the same
// single ascending-k chain plus one bias add as the training kernel above,
// so eval and training outputs are bitwise identical (conv_fuse_test.go).
// A single sample fans its output-channel strips out over the pool. A
// batch instead splits across samples: one group of consecutive samples
// per worker, each sample's whole GEMM run inline on its group's state and
// panel, so a batched forward pays one fork/join per layer instead of one
// per panel, and its scratch grows with the worker count, not the batch.
// With an arena installed the pass performs no heap allocations at steady
// state; samples are sliced from x.Data directly (x.Batch would allocate a
// header per sample).
func (c *Conv2D) forwardFused(x *tensor.Tensor, g tensor.ConvGeom, n, p, k, outH, outW int) *tensor.Tensor {
	out := EvalTensor(c.arena, n, c.OutC, outH, outW)
	groups := min(n, tensor.MaxWorkers())
	need := tensor.ConvPanelLen(k, p)
	var panels []float32
	if c.arena != nil {
		panels = c.arena.Floats(groups * need)
	} else {
		if cap(c.panel) < groups*need {
			c.panel = make([]float32, groups*need)
		}
		panels = c.panel[:groups*need]
	}
	var bias []float32
	if c.UseBias {
		bias = c.Bias.Value.Data
	}
	if cap(c.states) < groups {
		c.states = make([]tensor.ConvGemmState, groups)
	}
	c.states = c.states[:groups]
	for i := range c.states {
		st := &c.states[i]
		st.G, st.OutC, st.W, st.Bias = g, c.OutC, c.Weight.Value.Data, bias
		st.Panel = panels[i*need : (i+1)*need]
	}
	if n == 1 {
		st := &c.states[0]
		st.Img, st.Out = x.Data, out.Data
		st.Run()
		return out
	}
	if c.kern == nil {
		c.kern = c.runGroups
	}
	c.evalIn, c.evalOut = x, out
	tensor.ParallelFor(groups, c.kern)
	c.evalIn, c.evalOut = nil, nil
	return out
}

// runGroups is the batched ParallelFor body: sample groups [lo, hi), each
// sample on the calling goroutine.
func (c *Conv2D) runGroups(lo, hi int) {
	n, groups := c.evalIn.Dim(0), len(c.states)
	sample, plane := c.evalIn.Len()/n, c.evalOut.Len()/n
	for gi := lo; gi < hi; gi++ {
		st := &c.states[gi]
		for i := gi * n / groups; i < (gi+1)*n/groups; i++ {
			st.Img = c.evalIn.Data[i*sample : (i+1)*sample]
			st.Out = c.evalOut.Data[i*plane : (i+1)*plane]
			st.RunInline()
		}
	}
}

// Backward implements Layer.
func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if c.lastInput == nil {
		panic(fmt.Sprintf("nn: %s Backward before training Forward", c.name))
	}
	x := c.lastInput
	n := x.Dim(0)
	g := c.lastGeom
	p := g.OutH() * g.OutW()
	k := c.InC * c.KH * c.KW

	dx := tensor.New(x.Shape...)
	w2d := c.Weight.Value.Reshape(c.OutC, k)
	dw2d := c.Weight.EnsureGrad().Reshape(c.OutC, k)

	for i := 0; i < n; i++ {
		doutI := tensor.FromSlice(dout.Batch(i).Data, c.OutC, p)
		cols := tensor.FromSlice(c.lastCols[i*p*k:(i+1)*p*k], p, k)

		// dW (OutC x K) += dOut (OutC x P) x cols (P x K)
		dwi := tensor.MatMul(doutI, cols)
		dw2d.AddScaled(1, dwi)

		// dcols (P x K) = dOut^T (P x OutC) x W (OutC x K)
		dcols := tensor.MatMulTransA(doutI, w2d)
		g.Col2Im(dx.Batch(i).Data, dcols.Data)

		if c.UseBias {
			for ch := 0; ch < c.OutC; ch++ {
				var s float32
				row := doutI.Row(ch)
				for _, v := range row {
					s += v
				}
				c.Bias.EnsureGrad().Data[ch] += s
			}
		}
	}
	return dx
}
