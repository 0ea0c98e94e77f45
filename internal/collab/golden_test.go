package collab

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"lcrs/internal/tensor"
)

// goldenTensors regenerates the tensors whose v1 frames were captured in
// testdata/v1_raw_frames.bin with the pre-codec encoder. The RNG is
// deterministic, so the tensors here are bit-identical to the ones the
// golden bytes were written from.
func goldenTensors() []*tensor.Tensor {
	g := tensor.NewRNG(20260805)
	return []*tensor.Tensor{
		g.Uniform(-3, 3, 6, 14, 14),    // conv1-activation-shaped (C,H,W)
		g.Uniform(-1, 1, 2, 6, 14, 14), // batched (N,C,H,W)
		tensor.Ones(5),                 // rank-1
	}
}

// TestGoldenV1Frames pins wire compatibility: frames captured before the
// codec layer existed must keep decoding to the same tensors, and the
// default (raw, no codec configured) encoder must reproduce them
// byte-exactly, so old clients and servers interoperate with new ones.
func TestGoldenV1Frames(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "v1_raw_frames.bin"))
	if err != nil {
		t.Fatal(err)
	}

	// Old frames decode identically, and report the raw codec.
	r := bytes.NewReader(golden)
	var reencoded bytes.Buffer
	for i, want := range goldenTensors() {
		got, id, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: decode captured v1 frame: %v", i, err)
		}
		if id != CodecRaw {
			t.Fatalf("frame %d: v1 frame reported codec 0x%02x, want raw", i, uint8(id))
		}
		if !tensor.Equal(want, got, 0) {
			t.Fatalf("frame %d: captured v1 frame decoded to different values", i)
		}
		// The default writer must reproduce the captured bytes exactly.
		if err := WriteTensorCodec(&reencoded, got, Raw); err != nil {
			t.Fatalf("frame %d: re-encode: %v", i, err)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes after decoding all golden frames", r.Len())
	}
	if !bytes.Equal(reencoded.Bytes(), golden) {
		t.Fatal("default raw encoding is not byte-identical to the captured v1 frames")
	}
	// Belt and braces: WriteTensorCodec with the raw codec and with a nil
	// codec are the same v1 byte stream.
	var viaCodec, viaNil bytes.Buffer
	for _, tt := range goldenTensors() {
		if err := WriteTensorCodec(&viaCodec, tt, Raw); err != nil {
			t.Fatal(err)
		}
		if err := WriteTensorCodec(&viaNil, tt, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(viaCodec.Bytes(), golden) || !bytes.Equal(viaNil.Bytes(), golden) {
		t.Fatal("raw/nil codec paths diverge from the captured v1 frames")
	}
}
