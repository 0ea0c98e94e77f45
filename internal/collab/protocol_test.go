package collab

import (
	"bytes"
	"testing"

	"lcrs/internal/tensor"
)

func TestTensorFrameRoundTrip(t *testing.T) {
	g := tensor.NewRNG(1)
	for _, shape := range [][]int{{4}, {2, 3}, {1, 3, 8, 8}} {
		want := g.Uniform(-5, 5, shape...)
		var buf bytes.Buffer
		if err := WriteTensor(&buf, want); err != nil {
			t.Fatal(err)
		}
		if int64(buf.Len()) != FrameBytes(want) {
			t.Fatalf("FrameBytes = %d, encoded %d", FrameBytes(want), buf.Len())
		}
		got, err := ReadTensor(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(want, got, 0) {
			t.Fatal("frame round trip lost data")
		}
	}
}

func TestReadTensorRejectsBadFrames(t *testing.T) {
	// Bad magic.
	if _, err := ReadTensor(bytes.NewReader([]byte{0, 0, 0, 0, 1, 0, 0, 0})); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Huge claimed dimension must be rejected before allocation.
	var buf bytes.Buffer
	buf.Write([]byte{0x46, 0x54, 0x43, 0x4C}) // magic LE
	buf.Write([]byte{2, 0, 0, 0})             // rank 2
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0x7F}) // dim 2^31-1
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0x7F})
	if _, err := ReadTensor(&buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Truncated payload.
	var buf2 bytes.Buffer
	g := tensor.NewRNG(2)
	if err := WriteTensor(&buf2, g.Uniform(0, 1, 10)); err != nil {
		t.Fatal(err)
	}
	trunc := buf2.Bytes()[:buf2.Len()-8]
	if _, err := ReadTensor(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated frame accepted")
	}
}
