package nn

import (
	"fmt"
	"math"

	"lcrs/internal/tensor"
)

// BatchNorm normalizes activations per channel (for NCHW input) or per
// feature (for 2-D input), with learned scale and shift, and maintains
// running statistics for inference.
type BatchNorm struct {
	name     string
	C        int
	Eps      float32
	Momentum float32 // running = (1-m)*running + m*batch

	Gamma *Param // (C)
	Beta  *Param // (C)
	// RunningMean and RunningVar are inference statistics; they are stored
	// as plain tensors because they are not updated by gradient descent.
	RunningMean *tensor.Tensor
	RunningVar  *tensor.Tensor

	// caches
	lastX      *tensor.Tensor
	lastXHat   []float32
	lastMean   []float32
	lastInvStd []float32

	arena *tensor.Arena
}

// SetArena implements ArenaScratch.
func (bn *BatchNorm) SetArena(a *tensor.Arena) { bn.arena = a }

// CloneForInference implements ForwardContext: the clone shares Gamma,
// Beta and the running statistics but owns private eval state.
func (bn *BatchNorm) CloneForInference() Layer {
	return &BatchNorm{
		name: bn.name, C: bn.C, Eps: bn.Eps, Momentum: bn.Momentum,
		Gamma: bn.Gamma, Beta: bn.Beta,
		RunningMean: bn.RunningMean, RunningVar: bn.RunningVar,
	}
}

// NewBatchNorm constructs a batch normalization layer for c channels.
func NewBatchNorm(name string, c int) *BatchNorm {
	bn := &BatchNorm{name: name, C: c, Eps: 1e-5, Momentum: 0.1}
	bn.Gamma = NewParam(name+".gamma", tensor.Ones(c))
	bn.Gamma.NoDecay = true
	bn.Beta = NewParam(name+".beta", tensor.New(c))
	bn.Beta.NoDecay = true
	bn.RunningMean = tensor.New(c)
	bn.RunningVar = tensor.Ones(c)
	return bn
}

// Name implements Layer.
func (bn *BatchNorm) Name() string { return bn.name }

// Params implements Layer.
func (bn *BatchNorm) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// OutShape implements Layer.
func (bn *BatchNorm) OutShape(in []int) []int { return append([]int(nil), in...) }

// FLOPs implements Layer.
func (bn *BatchNorm) FLOPs(in []int) int64 { return 4 * int64(shapeProduct(in)) }

// channelSpan returns, for element index i of a flattened tensor with shape
// s, the channel it belongs to. We avoid per-element division by iterating
// channel-blocked in Forward/Backward instead; this helper documents layout.
func (bn *BatchNorm) checkShape(x *tensor.Tensor) (perChan int) {
	switch x.Rank() {
	case 2:
		if x.Dim(1) != bn.C {
			panic(fmt.Sprintf("nn: %s expects %d features, got %d", bn.name, bn.C, x.Dim(1)))
		}
		return 1
	case 4:
		if x.Dim(1) != bn.C {
			panic(fmt.Sprintf("nn: %s expects %d channels, got %d", bn.name, bn.C, x.Dim(1)))
		}
		return x.Dim(2) * x.Dim(3)
	default:
		panic(fmt.Sprintf("nn: %s expects rank-2 or rank-4 input, got %v", bn.name, x.Shape))
	}
}

// forEachChannel invokes fn(c, data) for every (sample, channel) block of x.
func (bn *BatchNorm) forEachChannel(x *tensor.Tensor, perChan int, fn func(c int, block []float32)) {
	n := x.Dim(0)
	for b := 0; b < n; b++ {
		base := b * bn.C * perChan
		for c := 0; c < bn.C; c++ {
			fn(c, x.Data[base+c*perChan:base+(c+1)*perChan])
		}
	}
}

// Forward implements Layer.
func (bn *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	perChan := bn.checkShape(x)
	n := x.Dim(0)
	m := float64(n * perChan) // elements per channel across the batch

	if !train {
		// Every element is written (the per-channel sweep covers the whole
		// tensor), so uninitialized arena storage is safe.
		out := EvalTensor(bn.arena, x.Shape...)
		for c := 0; c < bn.C; c++ {
			invStd := float32(1 / math.Sqrt(float64(bn.RunningVar.Data[c])+float64(bn.Eps)))
			scale := bn.Gamma.Value.Data[c] * invStd
			shift := bn.Beta.Value.Data[c] - float32(bn.RunningMean.Data[c]*scale)
			bn.forEachChannelPair(x, out, perChan, c, func(src, dst []float32) {
				for i, v := range src {
					dst[i] = float32(v*scale) + shift
				}
			})
		}
		return out
	}

	mean := make([]float32, bn.C)
	variance := make([]float32, bn.C)
	bn.forEachChannel(x, perChan, func(c int, block []float32) {
		var s float64
		for _, v := range block {
			s += float64(v)
		}
		mean[c] += float32(s / m)
	})
	bn.forEachChannel(x, perChan, func(c int, block []float32) {
		var s float64
		mu := float64(mean[c])
		for _, v := range block {
			d := float64(v) - mu
			s += float64(d * d)
		}
		variance[c] += float32(s / m)
	})

	invStd := make([]float32, bn.C)
	for c := 0; c < bn.C; c++ {
		invStd[c] = float32(1 / math.Sqrt(float64(variance[c])+float64(bn.Eps)))
		bn.RunningMean.Data[c] = float32((1-bn.Momentum)*bn.RunningMean.Data[c]) + float32(bn.Momentum*mean[c])
		bn.RunningVar.Data[c] = float32((1-bn.Momentum)*bn.RunningVar.Data[c]) + float32(bn.Momentum*variance[c])
	}

	out := tensor.New(x.Shape...)
	xhat := make([]float32, x.Len())
	for c := 0; c < bn.C; c++ {
		g, b := bn.Gamma.Value.Data[c], bn.Beta.Value.Data[c]
		mu, is := mean[c], invStd[c]
		bn.forEachChannelTriple(x, out, xhat, perChan, c, func(src, dst, xh []float32) {
			for i, v := range src {
				h := (v - mu) * is
				xh[i] = h
				dst[i] = float32(g*h) + b
			}
		})
	}

	bn.lastX = x
	bn.lastXHat = xhat
	bn.lastMean = mean
	bn.lastInvStd = invStd
	return out
}

func (bn *BatchNorm) forEachChannelPair(x, y *tensor.Tensor, perChan, c int, fn func(src, dst []float32)) {
	n := x.Dim(0)
	for b := 0; b < n; b++ {
		base := b*bn.C*perChan + c*perChan
		fn(x.Data[base:base+perChan], y.Data[base:base+perChan])
	}
}

func (bn *BatchNorm) forEachChannelTriple(x, y *tensor.Tensor, z []float32, perChan, c int, fn func(src, dst, aux []float32)) {
	n := x.Dim(0)
	for b := 0; b < n; b++ {
		base := b*bn.C*perChan + c*perChan
		fn(x.Data[base:base+perChan], y.Data[base:base+perChan], z[base:base+perChan])
	}
}

// Backward implements Layer using the standard batch-norm gradient:
// dx = gamma*invStd/m * (m*dy - sum(dy) - xhat*sum(dy*xhat)).
func (bn *BatchNorm) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if bn.lastX == nil {
		panic(fmt.Sprintf("nn: %s Backward before training Forward", bn.name))
	}
	perChan := bn.checkShape(dout)
	n := dout.Dim(0)
	m := float32(n * perChan)
	dx := tensor.New(dout.Shape...)

	sumDy := make([]float32, bn.C)
	sumDyXhat := make([]float32, bn.C)
	for b := 0; b < n; b++ {
		base := b * bn.C * perChan
		for c := 0; c < bn.C; c++ {
			blk := dout.Data[base+c*perChan : base+(c+1)*perChan]
			xh := bn.lastXHat[base+c*perChan : base+(c+1)*perChan]
			var sd, sdx float32
			for i, v := range blk {
				sd += v
				sdx += float32(v * xh[i])
			}
			sumDy[c] += sd
			sumDyXhat[c] += sdx
		}
	}
	for c := 0; c < bn.C; c++ {
		bn.Beta.EnsureGrad().Data[c] += sumDy[c]
		bn.Gamma.EnsureGrad().Data[c] += sumDyXhat[c]
	}
	for b := 0; b < n; b++ {
		base := b * bn.C * perChan
		for c := 0; c < bn.C; c++ {
			g := bn.Gamma.Value.Data[c]
			is := bn.lastInvStd[c]
			coef := g * is / m
			blk := dout.Data[base+c*perChan : base+(c+1)*perChan]
			xh := bn.lastXHat[base+c*perChan : base+(c+1)*perChan]
			dst := dx.Data[base+c*perChan : base+(c+1)*perChan]
			for i, dy := range blk {
				dst[i] = coef * (float32(m*dy) - sumDy[c] - float32(xh[i]*sumDyXhat[c]))
			}
		}
	}
	return dx
}
