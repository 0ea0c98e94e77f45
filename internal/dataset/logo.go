package dataset

import (
	"math"

	"lcrs/internal/tensor"
)

// LogoSpec describes a procedural brand-logo dataset, the stand-in for the
// China Mobile and FenJiu logo corpora of the paper's Web AR case study.
// Each brand is a deterministic geometric emblem (ring, bars, chevrons) in a
// fixed colour scheme; samples are produced by running the paper's
// augmentation pipeline over the clean emblem.
type LogoSpec struct {
	Name   string
	Brands int
	H, W   int
}

// DefaultLogoSpec mirrors the two-case study: a handful of brand classes at
// CIFAR-like resolution.
func DefaultLogoSpec() LogoSpec { return LogoSpec{Name: "webar-logos", Brands: 8, H: 32, W: 32} }

// renderEmblem draws brand b's clean logo.
func renderEmblem(spec LogoSpec, b int, g *tensor.RNG) *tensor.Tensor {
	img := tensor.New(3, spec.H, spec.W)
	colors := [][3]float32{
		{0.9, 0.1, 0.1}, {0.1, 0.5, 0.9}, {0.1, 0.8, 0.2}, {0.9, 0.7, 0.1},
		{0.7, 0.2, 0.8}, {0.1, 0.8, 0.8}, {0.9, 0.4, 0.1}, {0.5, 0.5, 0.9},
	}
	col := colors[b%len(colors)]
	// Rounded explicitly: arm64 would fuse the halving (a multiply by 0.5)
	// into the adds below.
	cx, cy := float64(float64(spec.W-1)/2), float64(float64(spec.H-1)/2)
	plane := spec.H * spec.W
	set := func(x, y int, scale float32) {
		if x < 0 || x >= spec.W || y < 0 || y >= spec.H {
			return
		}
		for ch := 0; ch < 3; ch++ {
			img.Data[ch*plane+y*spec.W+x] = col[ch] * scale
		}
	}
	switch b % 4 {
	case 0: // ring emblem
		r := float64(spec.W) / 3
		for t := 0; t < 360; t += 2 {
			a := float64(t) * math.Pi / 180
			set(int(cx+float64(r*math.Cos(a))), int(cy+float64(r*math.Sin(a))), 1)
			set(int(cx+float64(0.7*r*math.Cos(a))), int(cy+float64(0.7*r*math.Sin(a))), 0.8)
		}
	case 1: // horizontal bars
		for i := 0; i < 3; i++ {
			y := spec.H/4 + i*spec.H/4
			for x := spec.W / 5; x < 4*spec.W/5; x++ {
				set(x, y, 1)
				set(x, y+1, 0.7)
			}
		}
	case 2: // chevron
		for i := 0; i < spec.W/2; i++ {
			set(spec.W/4+i, spec.H/4+i/2, 1)
			set(3*spec.W/4-i, spec.H/4+i/2, 1)
		}
	case 3: // diamond grid
		for y := 0; y < spec.H; y += 4 {
			for x := (y / 4 % 2) * 2; x < spec.W; x += 4 {
				set(x, y, 1)
				set(x+1, y, 0.6)
				set(x, y+1, 0.6)
			}
		}
	}
	// Brand-specific accent mark so brands sharing a template differ.
	ax := 3 + g.Intn(spec.W-6)
	ay := 3 + g.Intn(spec.H-6)
	for oy := -1; oy <= 1; oy++ {
		for ox := -1; ox <= 1; ox++ {
			set(ax+ox, ay+oy, 1)
		}
	}
	return img
}

// GenerateLogos builds n augmented logo samples, deterministic in seed.
// Classes are interleaved; augmentation follows StandardLogoPipeline.
func GenerateLogos(spec LogoSpec, n int, seed int64) *Dataset {
	g := tensor.NewRNG(seed)
	emblems := make([]*tensor.Tensor, spec.Brands)
	for b := range emblems {
		emblems[b] = renderEmblem(spec, b, g)
	}
	aug := StandardLogoPipeline()
	augRNG := g.Split()
	noiseRNG := g.Split()

	x := tensor.New(n, 3, spec.H, spec.W)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		b := i % spec.Brands
		labels[i] = b
		sample := aug(augRNG, emblems[b])
		dst := x.Batch(i)
		copy(dst.Data, sample.Data)
		for j := range dst.Data {
			dst.Data[j] += float32(0.05 * noiseRNG.NormFloat64())
		}
	}
	return &Dataset{Name: spec.Name, Classes: spec.Brands, X: x, Labels: labels}
}
