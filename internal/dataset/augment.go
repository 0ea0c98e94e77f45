package dataset

import (
	"math"

	"lcrs/internal/tensor"
)

// Augmentation transforms one CHW image in place or into a new tensor.
// These are the operations the paper's Web AR section applies to expand the
// collected logo sets: rotation, translation, zoom, flips and colour
// perturbation.
type Augmentation func(g *tensor.RNG, img *tensor.Tensor) *tensor.Tensor

// Rotate returns an augmentation rotating by a uniform angle within
// +-maxDegrees around the image centre (nearest-neighbour resampling).
func Rotate(maxDegrees float64) Augmentation {
	return func(g *tensor.RNG, img *tensor.Tensor) *tensor.Tensor {
		angle := (2*g.Float64() - 1) * maxDegrees * math.Pi / 180
		return warp(img, func(x, y, cx, cy float64) (float64, float64) {
			dx, dy := x-cx, y-cy
			cos, sin := math.Cos(angle), math.Sin(angle)
			return cx + float64(cos*dx) + float64(sin*dy), cy - float64(sin*dx) + float64(cos*dy)
		})
	}
}

// Translate returns an augmentation shifting by up to maxPixels in each
// axis.
func Translate(maxPixels int) Augmentation {
	return func(g *tensor.RNG, img *tensor.Tensor) *tensor.Tensor {
		dx := float64(g.Intn(2*maxPixels+1) - maxPixels)
		dy := float64(g.Intn(2*maxPixels+1) - maxPixels)
		return warp(img, func(x, y, _, _ float64) (float64, float64) {
			return x - dx, y - dy
		})
	}
}

// Zoom returns an augmentation scaling about the centre by a factor drawn
// uniformly from [lo, hi].
func Zoom(lo, hi float64) Augmentation {
	return func(g *tensor.RNG, img *tensor.Tensor) *tensor.Tensor {
		s := lo + float64((hi-lo)*g.Float64())
		return warp(img, func(x, y, cx, cy float64) (float64, float64) {
			return cx + (x-cx)/s, cy + (y-cy)/s
		})
	}
}

// FlipH returns an augmentation mirroring horizontally with probability p.
func FlipH(p float64) Augmentation {
	return func(g *tensor.RNG, img *tensor.Tensor) *tensor.Tensor {
		if g.Float64() >= p {
			return img
		}
		c, h, w := img.Dim(0), img.Dim(1), img.Dim(2)
		out := tensor.New(c, h, w)
		for ch := 0; ch < c; ch++ {
			for y := 0; y < h; y++ {
				row := img.Data[ch*h*w+y*w:]
				dst := out.Data[ch*h*w+y*w:]
				for x := 0; x < w; x++ {
					dst[x] = row[w-1-x]
				}
			}
		}
		return out
	}
}

// ColorPerturb returns an augmentation scaling and shifting each channel by
// small random amounts.
func ColorPerturb(strength float64) Augmentation {
	return func(g *tensor.RNG, img *tensor.Tensor) *tensor.Tensor {
		c, h, w := img.Dim(0), img.Dim(1), img.Dim(2)
		out := img.Clone()
		for ch := 0; ch < c; ch++ {
			scale := float32(1 + float64(strength*(float64(2*g.Float64())-1)))
			shift := float32(strength * (float64(2*g.Float64()) - 1) / 2)
			plane := out.Data[ch*h*w : (ch+1)*h*w]
			for i := range plane {
				plane[i] = float32(plane[i]*scale) + shift
			}
		}
		return out
	}
}

// warp resamples img through an inverse coordinate map (output pixel ->
// source position) with nearest-neighbour sampling; out-of-bounds sources
// produce zeros.
func warp(img *tensor.Tensor, inv func(x, y, cx, cy float64) (float64, float64)) *tensor.Tensor {
	c, h, w := img.Dim(0), img.Dim(1), img.Dim(2)
	out := tensor.New(c, h, w)
	cx, cy := float64(w-1)/2, float64(h-1)/2
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sx, sy := inv(float64(x), float64(y), cx, cy)
			px, py := int(math.Round(sx)), int(math.Round(sy))
			if px < 0 || px >= w || py < 0 || py >= h {
				continue
			}
			for ch := 0; ch < c; ch++ {
				out.Data[ch*h*w+y*w+x] = img.Data[ch*h*w+py*w+px]
			}
		}
	}
	return out
}

// Pipeline composes augmentations left to right.
func Pipeline(augs ...Augmentation) Augmentation {
	return func(g *tensor.RNG, img *tensor.Tensor) *tensor.Tensor {
		for _, a := range augs {
			img = a(g, img)
		}
		return img
	}
}

// StandardLogoPipeline is the augmentation stack from the paper's Web AR
// case study: rotation, translation, zoom, flips and colour perturbation.
func StandardLogoPipeline() Augmentation {
	return Pipeline(
		Rotate(25),
		Translate(3),
		Zoom(0.8, 1.25),
		FlipH(0.5),
		ColorPerturb(0.2),
	)
}
