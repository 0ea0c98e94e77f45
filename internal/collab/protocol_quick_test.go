package collab

import (
	"bytes"
	"testing"
	"testing/quick"

	"lcrs/internal/tensor"
)

// Frame round trip must be lossless for arbitrary shapes up to rank 4.
func TestTensorFrameRoundTripQuick(t *testing.T) {
	f := func(seed int64, d1, d2, d3 uint8, rank uint8) bool {
		dims := []int{int(d1%7) + 1, int(d2%7) + 1, int(d3%7) + 1}
		shape := dims[:int(rank%3)+1]
		g := tensor.NewRNG(seed)
		want := g.Uniform(-100, 100, shape...)
		var buf bytes.Buffer
		if err := WriteTensorCodec(&buf, want, Raw); err != nil {
			return false
		}
		if int64(buf.Len()) != FrameBytesFor(want.Shape, Raw) {
			return false
		}
		got, _, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		return tensor.Equal(want, got, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Arbitrary byte garbage must never panic the frame reader and must either
// error or produce a bounded tensor.
func TestReadTensorNeverPanicsOnGarbageQuick(t *testing.T) {
	f := func(raw []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		t, _, err := ReadFrame(bytes.NewReader(raw))
		if err == nil && t.Len() > maxElems {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
