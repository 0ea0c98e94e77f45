package tensor

import (
	"math"
	"testing"
)

// unpackPanel reads the sliver-layout panel back into im2col row-major
// order for positions [p0, p0+pLen): out[(p-p0)*k + kk].
func unpackPanel(panel []float32, k, pLen int) []float32 {
	out := make([]float32, pLen*k)
	for q := 0; q < pLen; q++ {
		sv, r := q/gemmNR, q%gemmNR
		for kk := 0; kk < k; kk++ {
			out[q*k+kk] = panel[(sv*k+kk)*gemmNR+r]
		}
	}
	return out
}

func checkPackAgainstIm2Col(t *testing.T, g ConvGeom, seed int64) {
	t.Helper()
	k := g.InC * g.KH * g.KW
	p := g.OutH() * g.OutW()
	rng := NewRNG(seed)
	img := rng.Uniform(-1, 1, g.InC, g.InH, g.InW)
	cols := make([]float32, p*k)
	g.Im2Col(cols, img.Data)

	// Sweep ragged tile starts and lengths, including tiles whose last
	// sliver is partially past the end of the position range.
	for p0 := 0; p0 < p; p0 += maxInt(1, p/3) {
		for _, pLen := range []int{1, 3, minInt(convNC, p-p0), p - p0} {
			if pLen <= 0 || p0+pLen > p {
				continue
			}
			ns := (pLen + gemmNR - 1) / gemmNR
			panel := make([]float32, k*ns*gemmNR)
			for i := range panel {
				panel[i] = 555 // stale scratch: pack must overwrite every slot
			}
			g.PackColsPanel(panel, img.Data, p0, pLen)
			got := unpackPanel(panel, k, pLen)
			for q := 0; q < pLen; q++ {
				for kk := 0; kk < k; kk++ {
					want := cols[(p0+q)*k+kk]
					if math.Float32bits(got[q*k+kk]) != math.Float32bits(want) {
						t.Fatalf("geom %+v p0=%d pLen=%d: packed value (pos %d, kk %d) = %g, Im2Col has %g",
							g, p0, pLen, p0+q, kk, got[q*k+kk], want)
					}
				}
			}
			// Zero-fill property: pad lanes past pLen must be zero.
			for q := pLen; q < ns*gemmNR; q++ {
				sv, r := q/gemmNR, q%gemmNR
				for kk := 0; kk < k; kk++ {
					if v := panel[(sv*k+kk)*gemmNR+r]; v != 0 {
						t.Fatalf("geom %+v: pad lane (q=%d kk=%d) = %g, want 0", g, q, kk, v)
					}
				}
			}
		}
	}
}

func TestPackColsPanelMatchesIm2Col(t *testing.T) {
	geoms := []ConvGeom{
		{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 2},   // rows fully in padding
		{InC: 2, InH: 9, InW: 7, KH: 5, KW: 5, Stride: 2, Pad: 2},   // ragged stride
		{InC: 4, InH: 5, InW: 5, KH: 1, KW: 1, Stride: 1, Pad: 0},   // pointwise
		{InC: 2, InH: 3, InW: 3, KH: 3, KW: 3, Stride: 1, Pad: 0},   // single output position
		{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, Stride: 1, Pad: 1},   // kernel larger than input
		{InC: 3, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}, // > convNC positions
	}
	for i, g := range geoms {
		if err := g.Validate(); err != nil {
			t.Fatalf("test geometry %d invalid: %v", i, err)
		}
		checkPackAgainstIm2Col(t, g, int64(i+1))
	}
}

// FuzzPackColsPanel derives a random-but-valid geometry from the fuzz input
// and checks the packed panel against the materialized Im2Col matrix,
// covering pad/stride edge cases (including kernel rows entirely inside the
// padding band) far beyond the hand-picked table above.
func FuzzPackColsPanel(f *testing.F) {
	f.Add(uint8(3), uint8(8), uint8(8), uint8(3), uint8(3), uint8(1), uint8(1), int64(1))
	f.Add(uint8(1), uint8(2), uint8(3), uint8(4), uint8(1), uint8(2), uint8(3), int64(7))
	f.Add(uint8(2), uint8(12), uint8(5), uint8(5), uint8(5), uint8(3), uint8(4), int64(9))
	f.Fuzz(func(t *testing.T, inC, inH, inW, kh, kw, stride, pad uint8, seed int64) {
		g := ConvGeom{
			InC:    int(inC%4) + 1,
			InH:    int(inH%12) + 1,
			InW:    int(inW%12) + 1,
			KH:     int(kh%5) + 1,
			KW:     int(kw%5) + 1,
			Stride: int(stride%3) + 1,
			Pad:    int(pad % 4),
		}
		if g.Validate() != nil {
			t.Skip()
		}
		checkPackAgainstIm2Col(t, g, seed)
	})
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
