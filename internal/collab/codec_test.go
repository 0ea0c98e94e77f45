package collab

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"lcrs/internal/models"
	"lcrs/internal/tensor"
)

func TestCodecRegistry(t *testing.T) {
	names := CodecNames()
	if names[0] != "raw" {
		t.Fatalf("first codec is %q, want raw (the default)", names[0])
	}
	seen := map[CodecID]bool{}
	for _, c := range Codecs() {
		if seen[c.ID()] {
			t.Fatalf("duplicate codec id 0x%02x", uint8(c.ID()))
		}
		seen[c.ID()] = true
		byName, err := CodecByName(c.Name())
		if err != nil || byName.ID() != c.ID() {
			t.Fatalf("CodecByName(%q) = %v, %v", c.Name(), byName, err)
		}
		byID, err := CodecByID(c.ID())
		if err != nil || byID.Name() != c.Name() {
			t.Fatalf("CodecByID(0x%02x) = %v, %v", uint8(c.ID()), byID, err)
		}
	}
	if _, err := CodecByName("zstd"); err == nil {
		t.Fatal("unknown codec name must be rejected")
	}
	if _, err := CodecByID(0x42); err == nil {
		t.Fatal("unknown codec id must be rejected")
	}
	if c, err := CodecByName(""); err != nil || c.ID() != CodecRaw {
		t.Fatalf("empty codec name must resolve to raw, got %v, %v", c, err)
	}
	for _, bad := range []CodecID{0x11, 0x19, 0x1f} { // q1, q9, q15
		if _, err := CodecByID(bad); err == nil {
			t.Fatalf("out-of-range quant id 0x%02x must be rejected", uint8(bad))
		}
	}
}

// roundTrip encodes t with c and decodes it back, checking frame size
// accounting along the way.
func roundTrip(t *testing.T, tt *tensor.Tensor, c Codec) *tensor.Tensor {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTensorCodec(&buf, tt, c); err != nil {
		t.Fatalf("%s encode: %v", c.Name(), err)
	}
	if got, want := int64(buf.Len()), FrameBytesFor(tt.Shape, c); got != want {
		t.Fatalf("%s frame is %d bytes, FrameBytesFor says %d", c.Name(), got, want)
	}
	got, id, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("%s decode: %v", c.Name(), err)
	}
	if id != c.ID() {
		t.Fatalf("decoded codec id 0x%02x, want 0x%02x", uint8(id), uint8(c.ID()))
	}
	if !got.SameShape(tt) {
		t.Fatalf("%s round trip changed shape %v -> %v", c.Name(), tt.Shape, got.Shape)
	}
	return got
}

// quickShapes drives the property tests over arbitrary small shapes.
func quickShapes(f func(tt *tensor.Tensor) bool) func(seed int64, d1, d2, d3, d4, rank uint8) bool {
	return func(seed int64, d1, d2, d3, d4, rank uint8) bool {
		dims := []int{int(d1%7) + 1, int(d2%7) + 1, int(d3%5) + 1, int(d4%5) + 1}
		shape := dims[:int(rank%4)+1]
		g := tensor.NewRNG(seed)
		return f(g.Uniform(-50, 50, shape...))
	}
}

// Raw frames must round-trip bit-exactly over arbitrary shapes.
func TestRawRoundTripBitExact(t *testing.T) {
	prop := quickShapes(func(tt *tensor.Tensor) bool {
		got := roundTrip(t, tt, Raw)
		return tensor.Equal(tt, got, 0)
	})
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// f16 reconstruction must stay within the documented half-precision bound:
// relative error <= 2^-11 for normal-range magnitudes, absolute error
// <= 2^-25 below the normal range.
func TestF16RoundTripBound(t *testing.T) {
	prop := quickShapes(func(tt *tensor.Tensor) bool {
		got := roundTrip(t, tt, F16)
		for i, v := range tt.Data {
			bound := math.Abs(float64(v))/2048 + 3.0517578125e-05 // 2^-11 rel + 2^-15 abs slack
			if diff := math.Abs(float64(v - got.Data[i])); diff > bound {
				t.Fatalf("f16 error %g at %g exceeds bound %g", diff, v, bound)
			}
		}
		return true
	})
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	// Exact values must survive: zeros, powers of two, max half-range.
	exact := tensor.FromSlice([]float32{0, -0, 1, -1, 0.5, 2048, -65504, 0.25}, 8)
	got := roundTrip(t, exact, F16)
	if !tensor.Equal(exact, got, 0) {
		t.Fatalf("f16 must be exact on half-representable values: %v -> %v", exact.Data, got.Data)
	}
}

// qK reconstruction must stay within the documented per-channel bound
// maxAbs/(2^k-2) for every supported bit width, over arbitrary shapes.
func TestLevels(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 3, 4: 7, 8: 127}
	for k, want := range cases {
		if got := Levels(k); got != want {
			t.Errorf("Levels(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestQuantRoundTripBound(t *testing.T) {
	for _, c := range Codecs() {
		qc, ok := c.(quantCodec)
		if !ok {
			continue
		}
		prop := quickShapes(func(tt *tensor.Tensor) bool {
			got := roundTrip(t, tt, c)
			groups, size := quantGroups(tt.Shape)
			for g := 0; g < groups; g++ {
				var maxAbs float64
				for _, v := range tt.Data[g*size : (g+1)*size] {
					if a := math.Abs(float64(v)); a > maxAbs {
						maxAbs = a
					}
				}
				bound := MaxQuantError(maxAbs, qc.bits) * (1 + 1e-6)
				for i := g * size; i < (g+1)*size; i++ {
					if diff := math.Abs(float64(tt.Data[i] - got.Data[i])); diff > bound {
						t.Fatalf("%s group %d: error %g exceeds bound %g (maxAbs %g)",
							c.Name(), g, diff, bound, maxAbs)
					}
				}
			}
			return true
		})
		if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
	}
}

// An all-zero channel must encode with scale 0 and decode to exact zeros.
func TestQuantZeroChannel(t *testing.T) {
	tt := tensor.New(3, 4, 4)
	for i := 16; i < 32; i++ {
		tt.Data[i] = float32(i) // one nonzero channel between two zero ones
	}
	got := roundTrip(t, tt, Q8)
	for i := 0; i < 16; i++ {
		if got.Data[i] != 0 || got.Data[32+i] != 0 {
			t.Fatalf("zero channels must reconstruct exactly, got %g/%g", got.Data[i], got.Data[32+i])
		}
	}
}

// The headline acceptance number: q8 must shrink the conv1 activation
// frame at least 3x vs raw, and f16 at least 1.9x, on a realistic
// activation shape.
func TestPayloadReduction(t *testing.T) {
	shape := []int{96, 16, 16} // AlexNet-class conv1 output
	raw := FrameBytesFor(shape, Raw)
	for _, tc := range []struct {
		c   Codec
		min float64
	}{{Q8, 3}, {F16, 1.9}} {
		got := FrameBytesFor(shape, tc.c)
		if ratio := float64(raw) / float64(got); ratio < tc.min {
			t.Fatalf("%s reduces %d -> %d bytes (%.2fx), want >= %.1fx",
				tc.c.Name(), raw, got, ratio, tc.min)
		}
	}
}

// Composite-model invariance: quantizing the conv1 activation with q8 must
// leave the main branch's top-1 prediction unchanged on >= 95% of a fixed
// sample batch (the codec's accuracy story in one assertion).
func TestQ8CompositeTop1Stable(t *testing.T) {
	m, err := models.Build("lenet", models.Config{
		Classes: 10, InC: 3, InH: 32, InW: 32, WidthScale: 0.25, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	g := tensor.NewRNG(17)
	batch := g.Uniform(-1, 1, n, 3, 32, 32)
	shared := m.ForwardShared(batch, false)

	rawLogits := m.ForwardMainRest(shared, false)

	var buf bytes.Buffer
	if err := WriteTensorCodec(&buf, shared, Q8); err != nil {
		t.Fatal(err)
	}
	decoded, _, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q8Logits := m.ForwardMainRest(decoded, false)

	match := 0
	for i := 0; i < n; i++ {
		if tensor.ArgmaxRow(rawLogits.Row(i)) == tensor.ArgmaxRow(q8Logits.Row(i)) {
			match++
		}
	}
	if match < 95 {
		t.Fatalf("q8 kept the main-branch top-1 on %d/%d samples, want >= 95", match, n)
	}
	t.Logf("q8 top-1 agreement: %d/%d", match, n)
}
