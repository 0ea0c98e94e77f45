package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling window.
type ConvGeom struct {
	InC, InH, InW int // input channels and spatial extent
	KH, KW        int // kernel extent
	Stride        int
	Pad           int
}

// OutH returns the output height for the geometry.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.KH)/g.Stride + 1 }

// OutW returns the output width for the geometry.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.KW)/g.Stride + 1 }

// Validate returns an error when the geometry produces a non-positive
// output extent or has nonsensical parameters.
func (g ConvGeom) Validate() error {
	if g.InC <= 0 || g.InH <= 0 || g.InW <= 0 || g.KH <= 0 || g.KW <= 0 {
		return fmt.Errorf("conv geometry has non-positive extent: %+v", g)
	}
	if g.Stride <= 0 {
		return fmt.Errorf("conv geometry stride must be positive: %+v", g)
	}
	if g.Pad < 0 {
		return fmt.Errorf("conv geometry pad must be non-negative: %+v", g)
	}
	if g.OutH() <= 0 || g.OutW() <= 0 {
		return fmt.Errorf("conv geometry yields empty output: %+v", g)
	}
	return nil
}

// Im2Col unfolds a single image (C x H x W, flattened in img) into a matrix
// of shape (outH*outW) x (C*KH*KW) written into cols. Each row of cols is
// one receptive field. Out-of-bounds (padding) samples contribute zeros.
func (g ConvGeom) Im2Col(cols, img []float32) {
	outH, outW := g.OutH(), g.OutW()
	rowLen := g.InC * g.KH * g.KW
	if len(cols) != outH*outW*rowLen {
		panic(fmt.Sprintf("tensor: Im2Col cols length %d, want %d", len(cols), outH*outW*rowLen))
	}
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col img length %d, want %d", len(img), g.InC*g.InH*g.InW))
	}
	idx := 0
	for oy := 0; oy < outH; oy++ {
		iy0 := oy*g.Stride - g.Pad
		for ox := 0; ox < outW; ox++ {
			ix0 := ox*g.Stride - g.Pad
			for c := 0; c < g.InC; c++ {
				plane := img[c*g.InH*g.InW:]
				for ky := 0; ky < g.KH; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= g.InH {
						for kx := 0; kx < g.KW; kx++ {
							cols[idx] = 0
							idx++
						}
						continue
					}
					rowBase := iy * g.InW
					for kx := 0; kx < g.KW; kx++ {
						ix := ix0 + kx
						if ix < 0 || ix >= g.InW {
							cols[idx] = 0
						} else {
							cols[idx] = plane[rowBase+ix]
						}
						idx++
					}
				}
			}
		}
	}
}

// PackColsPanel packs the im2col rows for output positions [p0, p0+pLen)
// directly into panel in the gemmNR-sliver layout the fused convolution
// microkernel consumes (convgemm.go): panel[(sv*K+kk)*gemmNR+r] holds the
// kernel-element-kk value of output position p0 + sv*gemmNR + r, where
// K = InC*KH*KW and kk enumerates (c, ky, kx) in Im2Col's order. Values
// are exactly the Im2Col matrix entries, transposed into slivers — padding
// contributes zeros and lanes past pLen are zero-filled — so the fused
// path computes the same products as the materialized path (pinned by the
// property and fuzz tests in im2col_pack_test.go).
func (g ConvGeom) PackColsPanel(panel, img []float32, p0, pLen int) {
	outW := g.OutW()
	k := g.InC * g.KH * g.KW
	planeSz := g.InH * g.InW
	if len(img) != g.InC*planeSz {
		panic(fmt.Sprintf("tensor: PackColsPanel img length %d, want %d", len(img), g.InC*planeSz))
	}
	ns := (pLen + gemmNR - 1) / gemmNR
	if len(panel) < k*ns*gemmNR {
		panic(fmt.Sprintf("tensor: PackColsPanel panel length %d, want >= %d", len(panel), k*ns*gemmNR))
	}
	for q := 0; q < ns*gemmNR; q++ {
		sv, r := q/gemmNR, q%gemmNR
		idx := sv*k*gemmNR + r
		if q >= pLen {
			for kk := 0; kk < k; kk++ {
				panel[idx] = 0
				idx += gemmNR
			}
			continue
		}
		pos := p0 + q
		oy, ox := pos/outW, pos%outW
		iy0 := oy*g.Stride - g.Pad
		ix0 := ox*g.Stride - g.Pad
		for c := 0; c < g.InC; c++ {
			plane := img[c*planeSz : (c+1)*planeSz]
			for ky := 0; ky < g.KH; ky++ {
				iy := iy0 + ky
				if iy < 0 || iy >= g.InH {
					// Entire kernel row is padding: zeros.
					for kx := 0; kx < g.KW; kx++ {
						panel[idx] = 0
						idx += gemmNR
					}
					continue
				}
				rowBase := iy * g.InW
				for kx := 0; kx < g.KW; kx++ {
					ix := ix0 + kx
					var v float32
					if ix >= 0 && ix < g.InW {
						v = plane[rowBase+ix]
					}
					panel[idx] = v
					idx += gemmNR
				}
			}
		}
	}
}

// Col2Im folds the column matrix back into image space, accumulating
// overlapping contributions. It is the adjoint of Im2Col and is used in the
// convolution backward pass. img must be zeroed by the caller when a fresh
// gradient is wanted.
func (g ConvGeom) Col2Im(img, cols []float32) {
	outH, outW := g.OutH(), g.OutW()
	rowLen := g.InC * g.KH * g.KW
	if len(cols) != outH*outW*rowLen {
		panic(fmt.Sprintf("tensor: Col2Im cols length %d, want %d", len(cols), outH*outW*rowLen))
	}
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Col2Im img length %d, want %d", len(img), g.InC*g.InH*g.InW))
	}
	idx := 0
	for oy := 0; oy < outH; oy++ {
		iy0 := oy*g.Stride - g.Pad
		for ox := 0; ox < outW; ox++ {
			ix0 := ox*g.Stride - g.Pad
			for c := 0; c < g.InC; c++ {
				plane := img[c*g.InH*g.InW:]
				for ky := 0; ky < g.KH; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= g.InH {
						idx += g.KW
						continue
					}
					rowBase := iy * g.InW
					for kx := 0; kx < g.KW; kx++ {
						ix := ix0 + kx
						if ix >= 0 && ix < g.InW {
							plane[rowBase+ix] += cols[idx]
						}
						idx++
					}
				}
			}
		}
	}
}
