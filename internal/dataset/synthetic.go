package dataset

import (
	"fmt"
	"math"

	"lcrs/internal/tensor"
)

// Spec parameterizes the synthetic generator. Difficulty grows with Noise
// and Jitter and with ProtoOverlap, which blends a fraction of every class
// prototype from a common pool so classes genuinely resemble each other.
type Spec struct {
	Name    string
	Classes int
	C, H, W int
	// Strokes is the number of oriented strokes per class prototype.
	Strokes int
	// Noise is the per-pixel Gaussian noise sigma.
	Noise float64
	// Jitter is the max translation (pixels) applied per sample.
	Jitter int
	// ProtoOverlap in [0,1) blends class prototypes toward shared
	// distractor strokes, raising inter-class similarity.
	ProtoOverlap float64
}

// Specs returns the four benchmark dataset specifications in the paper's
// difficulty order.
func Specs() []Spec {
	return []Spec{
		{Name: "mnist", Classes: 10, C: 1, H: 28, W: 28, Strokes: 4, Noise: 0.08, Jitter: 1, ProtoOverlap: 0.0},
		{Name: "fashion", Classes: 10, C: 1, H: 28, W: 28, Strokes: 5, Noise: 0.15, Jitter: 2, ProtoOverlap: 0.15},
		{Name: "cifar10", Classes: 10, C: 3, H: 32, W: 32, Strokes: 6, Noise: 0.30, Jitter: 3, ProtoOverlap: 0.35},
		{Name: "cifar100", Classes: 100, C: 3, H: 32, W: 32, Strokes: 6, Noise: 0.32, Jitter: 3, ProtoOverlap: 0.40},
	}
}

// SpecByName returns the spec with the given name.
func SpecByName(name string) (Spec, error) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown dataset %q", name)
}

// stroke is one oriented line segment of a class prototype, in normalized
// [0,1] coordinates with per-channel intensities.
type stroke struct {
	x0, y0, x1, y1 float64
	color          []float64 // length C
	thick          float64
}

// prototype is the renderable description of one class.
type prototype struct {
	strokes []stroke
}

// makePrototypes draws class prototypes from a seeded RNG. A shared
// distractor pool supplies ProtoOverlap of every class's strokes.
func makePrototypes(g *tensor.RNG, spec Spec) []prototype {
	shared := randomStrokes(g, spec, spec.Strokes)
	protos := make([]prototype, spec.Classes)
	nShared := int(math.Round(spec.ProtoOverlap * float64(spec.Strokes)))
	for c := range protos {
		own := randomStrokes(g, spec, spec.Strokes-nShared)
		strokes := append([]stroke(nil), own...)
		for s := 0; s < nShared; s++ {
			strokes = append(strokes, shared[(c+s)%len(shared)])
		}
		protos[c] = prototype{strokes: strokes}
	}
	return protos
}

func randomStrokes(g *tensor.RNG, spec Spec, n int) []stroke {
	out := make([]stroke, n)
	for i := range out {
		color := make([]float64, spec.C)
		for ch := range color {
			color[ch] = 0.5 + float64(0.5*g.Float64())
			if g.Float64() < 0.3 {
				color[ch] = -color[ch]
			}
		}
		out[i] = stroke{
			x0: 0.1 + float64(0.8*g.Float64()), y0: 0.1 + float64(0.8*g.Float64()),
			x1: 0.1 + float64(0.8*g.Float64()), y1: 0.1 + float64(0.8*g.Float64()),
			color: color,
			thick: 1 + float64(g.Float64()*1.5),
		}
	}
	return out
}

// renderStroke rasterizes one stroke into img (C planes of HxW) with the
// given pixel offset and intensity scale.
func renderStroke(img []float32, spec Spec, s stroke, dx, dy int, scale float64) {
	steps := 2 * (spec.H + spec.W)
	planeLen := spec.H * spec.W
	r := float64(s.thick / 2) // rounded: arm64 would fuse the halving into r+0.5
	for t := 0; t <= steps; t++ {
		f := float64(t) / float64(steps)
		cx := float64((s.x0+float64((s.x1-s.x0)*f))*float64(spec.W-1)) + float64(dx)
		cy := float64((s.y0+float64((s.y1-s.y0)*f))*float64(spec.H-1)) + float64(dy)
		lo := int(math.Floor(-r))
		hi := int(math.Ceil(r))
		for oy := lo; oy <= hi; oy++ {
			for ox := lo; ox <= hi; ox++ {
				px := int(math.Round(cx)) + ox
				py := int(math.Round(cy)) + oy
				if px < 0 || px >= spec.W || py < 0 || py >= spec.H {
					continue
				}
				d := math.Hypot(float64(ox), float64(oy))
				if d > r+0.5 {
					continue
				}
				for ch := 0; ch < spec.C; ch++ {
					idx := ch*planeLen + py*spec.W + px
					v := float32(s.color[ch] * scale)
					if vAbs, cur := math.Abs(float64(v)), math.Abs(float64(img[idx])); vAbs > cur {
						img[idx] = v
					}
				}
			}
		}
	}
}

// Generate builds n samples of the given spec, deterministically from seed.
// Classes are interleaved so any prefix is class-balanced.
func Generate(spec Spec, n int, seed int64) *Dataset {
	g := tensor.NewRNG(seed)
	protos := makePrototypes(g, spec)
	x := tensor.New(n, spec.C, spec.H, spec.W)
	labels := make([]int, n)
	sampleRNG := g.Split()
	for i := 0; i < n; i++ {
		cls := i % spec.Classes
		labels[i] = cls
		img := x.Batch(i).Data
		dx := sampleRNG.Intn(2*spec.Jitter+1) - spec.Jitter
		dy := sampleRNG.Intn(2*spec.Jitter+1) - spec.Jitter
		scale := 0.8 + float64(0.4*sampleRNG.Float64())
		for _, s := range protos[cls].strokes {
			renderStroke(img, spec, s, dx, dy, scale)
		}
		for j := range img {
			img[j] += float32(spec.Noise * sampleRNG.NormFloat64())
		}
	}
	return &Dataset{Name: spec.Name, Classes: spec.Classes, X: x, Labels: labels}
}

// GenerateByName builds n samples of the named benchmark dataset.
func GenerateByName(name string, n int, seed int64) (*Dataset, error) {
	spec, err := SpecByName(name)
	if err != nil {
		return nil, err
	}
	return Generate(spec, n, seed), nil
}
