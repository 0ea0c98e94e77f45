package binary

import (
	"fmt"

	"lcrs/internal/nn"
	"lcrs/internal/tensor"
)

// PackedConv2D is the deployment form of a trained binary convolution: one
// bit per weight plus a float scale per filter. Its forward pass is the
// XNOR+popcount kernel the paper's WASM library runs on the mobile web
// browser. It is inference-only, and like nn.Conv2D it keeps eval scratch
// between forwards, so one layer must not run concurrent Forward calls
// (CloneForInference gives each goroutine its own).
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

	// Eval state: signRows holds the image's padded row sign bitmaps (InC x
	// padH rows of rowWords words), gemm.X its packed receptive fields,
	// gemm.Scale its K plane and aplane the channel-mean |x| plane behind
	// it. The buffers grow to the largest image seen and are reused; arena,
	// when set, serves the output tensor.
	padH, rowWords int
	signRows       []uint64
	aplane         []float32
	gemm           xnorGEMM
	arena          *tensor.Arena
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

// cloneForInference returns a layer sharing p's weights with fresh eval
// state and no arena.
func (p *PackedConv2D) cloneForInference() *PackedConv2D {
	return &PackedConv2D{
		Name: p.Name, InC: p.InC, OutC: p.OutC, KH: p.KH, KW: p.KW,
		Stride: p.Stride, Pad: p.Pad, Alpha: p.Alpha, Bias: p.Bias, W: p.W,
	}
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
//
// Per image, three passes, all on the calling goroutine — at batch 1 the
// XNOR+popcount work is too small for a fan-out to pay, and a browser tab
// runs one thread anyway:
//  1. every input row is packed once into a sign bitmap of its padded
//     width, the padding packed as the +1 that sign(0) gives the zeros
//     Im2Col would read;
//  2. each output position's receptive field is assembled from KW-bit
//     chunks of those bitmaps, in Im2Col's (c, ky, kx) bit order, into one
//     row of sign words — the float im2col matrix never exists;
//  3. xnorGEMM popcounts every filter against every field.
//
// Each field row holds exactly the bits PackSigns would give its Im2Col
// row, so every output is bitwise the Im2Col → PackSigns → XnorDot result.
func (p *PackedConv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	n := x.Dim(0)
	g := p.Geom(x.Shape[1:])
	outH, outW := g.OutH(), g.OutW()
	out := nn.EvalTensor(p.arena, n, p.OutC, outH, outW)
	p.prepare(g)
	sample, plane := g.InC*g.InH*g.InW, p.OutC*outH*outW
	for i := 0; i < n; i++ {
		img := x.Data[i*sample : (i+1)*sample]
		p.gemm.Dst = out.Data[i*plane : (i+1)*plane]
		p.packRows(g, img)
		InputScalesInto(p.gemm.Scale, p.aplane, g, img)
		p.packFields(g)
		p.gemm.run()
	}
	p.gemm.Dst = nil
	return out
}

// prepare sizes the eval state for geometry g.
func (p *PackedConv2D) prepare(g tensor.ConvGeom) {
	p.padH = g.InH + 2*g.Pad
	// One word past the padded width lets bitsAt read a chunk's second word
	// unconditionally.
	p.rowWords = wordsFor(g.InW+2*g.Pad) + 1
	positions := g.OutH() * g.OutW()
	p.signRows = grow(p.signRows, g.InC*p.padH*p.rowWords)
	p.aplane = grow(p.aplane, g.InH*g.InW)
	m := &p.gemm
	m.W, m.Alpha, m.Bias = p.W, p.Alpha, p.Bias
	m.X = grow(m.X, positions*p.W.WordsPerRow)
	m.Scale = grow(m.Scale, positions)
	m.OS, m.JS = positions, 1
}

// packRows writes the padded row sign bitmaps of every input channel of
// img.
func (p *PackedConv2D) packRows(g tensor.ConvGeom, img []float32) {
	for c := 0; c < g.InC; c++ {
		plane := img[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		rows := p.signRows[c*p.padH*p.rowWords : (c+1)*p.padH*p.rowWords]
		for y := 0; y < p.padH; y++ {
			row := rows[y*p.rowWords : (y+1)*p.rowWords]
			for i := range row {
				row[i] = ^uint64(0)
			}
			if iy := y - g.Pad; iy >= 0 && iy < g.InH {
				packBitsAt(row, plane[iy*g.InW:(iy+1)*g.InW], g.Pad)
			}
		}
	}
}

// packFields assembles the receptive fields, one row of WordsPerRow words
// per output position: field bit j = c*KH*KW + ky*KW + kx holds the sign of
// padded input pixel (c, oy*Stride+ky, ox*Stride+kx). The loops run
// chunk-major: for each (c, ky) the KW-bit chunk of every position is ORed
// in at the same offset j, so the row, the offset and the mask stay fixed
// while the positions stream past, and one 64-bit window of the row serves
// every position whose chunk lies inside it.
func (p *PackedConv2D) packFields(g tensor.ConvGeom) {
	rw := p.rowWords
	outH, outW, wpr, s := g.OutH(), g.OutW(), p.W.WordsPerRow, g.Stride
	fields := p.gemm.X
	clear(fields)
	j := 0
	for c := 0; c < g.InC; c++ {
		rows := p.signRows[c*p.padH*rw : (c+1)*p.padH*rw]
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx += 64 {
				width := min(64, g.KW-kx)
				mask := ^uint64(0) >> uint(64-width)
				wj, sh := j>>6, uint(j&63)
				spill := int(sh)+width > 64 // the chunk's high bits go to word wj+1
				per := (64-width)/s + 1     // chunks one window holds
				for oy := 0; oy < outH; oy++ {
					y := oy*s + ky
					row := rows[y*rw : (y+1)*rw]
					f := fields[oy*outW*wpr+wj : (oy+1)*outW*wpr]
					for ox0 := 0; ox0 < outW; ox0 += per {
						v := bitsAt(row, ox0*s+kx)
						for k := ox0 * wpr; k < min(outW, ox0+per)*wpr; k += wpr {
							chunk := v & mask
							v >>= uint(s) & 63 // s < 64 whenever per > 1
							f[k] |= chunk << sh
							if spill {
								f[k+1] |= chunk >> ((64 - sh) & 63)
							}
						}
					}
				}
				j += width
			}
		}
	}
}

// packBitsAt overwrites bits [off, off+len(src)) of dst with the sign bits
// of src.
func packBitsAt(dst []uint64, src []float32, off int) {
	for len(src) > 0 {
		sh := uint(off & 63)
		n := min(64-int(sh), len(src))
		mask := (uint64(1)<<uint(n) - 1) << sh
		w := &dst[off>>6]
		*w = *w&^mask | packWord(src[:n])<<sh
		off += n
		src = src[n:]
	}
}

// bitsAt returns the 64 bits of row that start at bit off; row must hold a
// word past the last one they touch.
func bitsAt(row []uint64, off int) uint64 {
	i, sh := off>>6, uint(off&63)
	return row[i]>>sh | row[i+1]<<1<<(63-sh&63)
}

// grow returns buf resliced to n elements, reallocated only when too small.
// Contents are unspecified: every user overwrites what it reads.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// PackedLinear is the deployment form of a trained binary dense layer.
// Like PackedConv2D it keeps eval scratch: one layer, one forward at a time.
type PackedLinear struct {
	Name    string
	In, Out int
	Alpha   []float32
	Bias    []float32
	W       *PackedMatrix // Out rows of In bits

	// Eval state: gemm.X holds the packed input rows, gemm.Scale their
	// betas; arena, when set, serves the output tensor.
	gemm  xnorGEMM
	arena *tensor.Arena
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

// cloneForInference is PackedConv2D.cloneForInference for a dense layer.
func (p *PackedLinear) cloneForInference() *PackedLinear {
	return &PackedLinear{Name: p.Name, In: p.In, Out: p.Out, Alpha: p.Alpha, Bias: p.Bias, W: p.W}
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

// Forward runs the packed XNOR dense layer on (batch, In) float input:
// every row is packed once, then xnorGEMM meets every block of weight rows
// with every input row.
func (p *PackedLinear) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != p.In {
		panic(fmt.Sprintf("binary: %s expects (batch,%d) input, got %v", p.Name, p.In, x.Shape))
	}
	n := x.Dim(0)
	out := nn.EvalTensor(p.arena, n, p.Out)
	wpr := p.W.WordsPerRow
	m := &p.gemm
	m.W, m.Alpha, m.Bias = p.W, p.Alpha, p.Bias
	m.X = grow(m.X, n*wpr)
	m.Scale = grow(m.Scale, n)
	for i := 0; i < n; i++ {
		row := x.Data[i*p.In : (i+1)*p.In]
		m.Scale[i] = RowScale(row)
		PackSigns(m.X[i*wpr:(i+1)*wpr], row)
	}
	m.Dst, m.OS, m.JS = out.Data, 1, p.Out
	m.run()
	m.Dst = nil
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

var (
	_ nn.Layer          = PackedLayer{}
	_ nn.ArenaScratch   = PackedLayer{}
	_ nn.ForwardContext = PackedLayer{}
)

// Weights returns the layer's per-filter scales and biases and its sign-bit
// matrix — the three things a bundle's packed section carries.
func (l PackedLayer) Weights() (alpha, bias []float32, w *PackedMatrix) {
	if l.Conv != nil {
		return l.Conv.Alpha, l.Conv.Bias, l.Conv.W
	}
	return l.Linear.Alpha, l.Linear.Bias, l.Linear.W
}

// SetArena implements nn.ArenaScratch: the layer's outputs come from a.
func (l PackedLayer) SetArena(a *tensor.Arena) {
	if l.Conv != nil {
		l.Conv.arena = a
	} else {
		l.Linear.arena = a
	}
}

// CloneForInference implements nn.ForwardContext: the clone shares the
// packed weights and owns fresh eval scratch, with no arena. Packed layers
// keep eval state between forwards, so without it nn.CloneForInference
// would share one layer between the clone and the original.
func (l PackedLayer) CloneForInference() nn.Layer {
	if l.Conv != nil {
		return PackedLayer{Conv: l.Conv.cloneForInference()}
	}
	return PackedLayer{Linear: l.Linear.cloneForInference()}
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
