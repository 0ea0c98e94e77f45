package modelio

import (
	"bytes"
	"testing"

	"lcrs/internal/models"
	"lcrs/internal/tensor"
)

func buildPair(t *testing.T, arch string, seedA, seedB int64) (a, b *models.Composite) {
	t.Helper()
	cfg := models.Config{Classes: 10, InC: 3, InH: 32, InW: 32, WidthScale: 0.1}
	cfg.Seed = seedA
	a, err := models.Build(arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = seedB
	b, err = models.Build(arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestCheckpointRoundTrip(t *testing.T) {
	for _, arch := range models.Names() {
		src, dst := buildPair(t, arch, 1, 2)
		var buf bytes.Buffer
		if err := SaveComposite(&buf, src); err != nil {
			t.Fatalf("%s: save: %v", arch, err)
		}
		if err := LoadComposite(bytes.NewReader(buf.Bytes()), dst); err != nil {
			t.Fatalf("%s: load: %v", arch, err)
		}
		g := tensor.NewRNG(3)
		x := g.Uniform(-1, 1, 2, 3, 32, 32)
		wantMain := src.ForwardMainRest(src.ForwardShared(x, false), false)
		gotMain := dst.ForwardMainRest(dst.ForwardShared(x, false), false)
		if !tensor.Equal(wantMain, gotMain, 1e-6) {
			t.Fatalf("%s: main branch differs after checkpoint round trip", arch)
		}
		shared := src.ForwardShared(x, false)
		wantBin := src.ForwardBinary(shared, false)
		gotBin := dst.ForwardBinary(dst.ForwardShared(x, false), false)
		if !tensor.Equal(wantBin, gotBin, 1e-6) {
			t.Fatalf("%s: binary branch differs after checkpoint round trip", arch)
		}
	}
}

func TestLoadRejectsWrongArchitecture(t *testing.T) {
	lenet, _ := buildPair(t, "lenet", 1, 2)
	alex, err := models.Build("alexnet", models.Config{Classes: 10, InC: 3, InH: 32, InW: 32, WidthScale: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveComposite(&buf, lenet); err != nil {
		t.Fatal(err)
	}
	if err := LoadComposite(bytes.NewReader(buf.Bytes()), alex); err == nil {
		t.Fatal("loading a LeNet checkpoint into AlexNet must fail")
	}
}

func TestLoadRejectsCorruptHeader(t *testing.T) {
	m, _ := buildPair(t, "lenet", 1, 2)
	var buf bytes.Buffer
	if err := SaveComposite(&buf, m); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[0] ^= 0xFF
	if err := LoadComposite(bytes.NewReader(data), m); err == nil {
		t.Fatal("corrupt magic must be rejected")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	m, _ := buildPair(t, "lenet", 1, 2)
	var buf bytes.Buffer
	if err := SaveComposite(&buf, m); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()/2]
	if err := LoadComposite(bytes.NewReader(data), m); err == nil {
		t.Fatal("truncated checkpoint must be rejected")
	}
}

// The browser bundle must reproduce the binary path bit-for-bit: decoding
// packed weights as +-alpha preserves both sign and alpha.
func TestBrowserBundleRoundTripPreservesInference(t *testing.T) {
	for _, arch := range models.Names() {
		src, dst := buildPair(t, arch, 5, 6)
		data, err := EncodeBrowserBundle(src)
		if err != nil {
			t.Fatalf("%s: encode: %v", arch, err)
		}
		if err := DecodeBrowserBundle(data, dst); err != nil {
			t.Fatalf("%s: decode: %v", arch, err)
		}
		g := tensor.NewRNG(7)
		x := g.Uniform(-1, 1, 2, 3, 32, 32)
		wantShared := src.ForwardShared(x, false)
		gotShared := dst.ForwardShared(x, false)
		if !tensor.Equal(wantShared, gotShared, 1e-6) {
			t.Fatalf("%s: shared prefix differs after bundle round trip", arch)
		}
		want := src.ForwardBinary(wantShared, false)
		got := dst.ForwardBinary(gotShared, false)
		if !tensor.Equal(want, got, 1e-4) {
			t.Fatalf("%s: binary branch differs after bundle round trip", arch)
		}
	}
}

// The bundle must be dramatically smaller than the checkpoint — it is the
// paper's model-loading advantage.
func TestBundleMuchSmallerThanCheckpoint(t *testing.T) {
	cfg := models.Config{Classes: 10, InC: 3, InH: 32, InW: 32, WidthScale: 0.25, Seed: 1}
	m, err := models.Build("alexnet", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := SaveComposite(&ckpt, m); err != nil {
		t.Fatal(err)
	}
	bundle, err := EncodeBrowserBundle(m)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(ckpt.Len()) / float64(len(bundle)); ratio < 8 {
		t.Fatalf("bundle compression vs checkpoint = %.1fx, want > 8x", ratio)
	}
	// The wire size must agree with the accounting model within 20%.
	est := m.BinarySizeBytes()
	got := int64(len(bundle))
	if got > est*13/10 || got < est*7/10 {
		t.Fatalf("bundle bytes %d far from size accounting %d", got, est)
	}
}

func TestDecodeBundleRejectsGarbage(t *testing.T) {
	m, _ := buildPair(t, "lenet", 1, 2)
	if err := DecodeBrowserBundle([]byte{1, 2, 3}, m); err == nil {
		t.Fatal("garbage bundle must be rejected")
	}
}
