package tensor

import (
	"math"
	"math/rand"
)

// RNG is a seeded random source for reproducible initialization and data
// generation. It wraps math/rand so every experiment in the repository can
// be replayed bit-for-bit from its seed.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float32 returns a uniform value in [0,1).
func (g *RNG) Float32() float32 { return g.r.Float32() }

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// NormFloat64 returns a standard normal value.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Split derives an independent child generator. Use one child per
// concurrent consumer so goroutines never share a rand.Rand.
func (g *RNG) Split() *RNG { return NewRNG(g.r.Int63()) }

// Uniform fills a new tensor of the given shape with values in [lo, hi).
func (g *RNG) Uniform(lo, hi float32, shape ...int) *Tensor {
	t := New(shape...)
	span := hi - lo
	for i := range t.Data {
		t.Data[i] = lo + float32(span*g.Float32())
	}
	return t
}

// Normal fills a new tensor of the given shape with N(mean, std^2) values.
func (g *RNG) Normal(mean, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(mean + float64(std*g.NormFloat64()))
	}
	return t
}

// KaimingConv initializes a conv weight tensor (outC, inC, kH, kW) with
// Kaiming/He normal scaling suited to ReLU networks: std = sqrt(2/fanIn).
func (g *RNG) KaimingConv(outC, inC, kH, kW int) *Tensor {
	fanIn := inC * kH * kW
	std := math.Sqrt(2.0 / float64(fanIn))
	return g.Normal(0, std, outC, inC, kH, kW)
}

// KaimingLinear initializes a linear weight tensor (out, in) with Kaiming
// normal scaling.
func (g *RNG) KaimingLinear(out, in int) *Tensor {
	std := math.Sqrt(2.0 / float64(in))
	return g.Normal(0, std, out, in)
}
