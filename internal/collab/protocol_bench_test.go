package collab

import (
	"bytes"
	"io"
	"testing"

	"lcrs/internal/tensor"
)

// The benchmark tensor is an AlexNet-class conv1 activation, the frame a
// real offload ships. Before the direct math.Float32bits encoder, the
// stdlib binary.Write/binary.Read slice path reflected per element; these
// benchmarks pin the non-reflective fast path (roughly an order of
// magnitude on both sides) and track the codec encode costs.

func benchTensor() *tensor.Tensor {
	return tensor.NewRNG(5).Uniform(-2, 2, 96, 16, 16)
}

func BenchmarkWriteTensor(b *testing.B) {
	t := benchTensor()
	b.SetBytes(FrameBytesFor(t.Shape, Raw))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteTensorCodec(io.Discard, t, Raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadTensor(b *testing.B) {
	t := benchTensor()
	var buf bytes.Buffer
	if err := WriteTensorCodec(&buf, t, Raw); err != nil {
		b.Fatal(err)
	}
	frame := buf.Bytes()
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReadFrame(bytes.NewReader(frame)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteTensorCodec(b *testing.B) {
	t := benchTensor()
	for _, c := range []Codec{Raw, F16, Q8} {
		b.Run(c.Name(), func(b *testing.B) {
			b.SetBytes(FrameBytesFor(t.Shape, c))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := WriteTensorCodec(io.Discard, t, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReadFrameCodec(b *testing.B) {
	t := benchTensor()
	for _, c := range []Codec{Raw, F16, Q8} {
		var buf bytes.Buffer
		if err := WriteTensorCodec(&buf, t, c); err != nil {
			b.Fatal(err)
		}
		frame := buf.Bytes()
		b.Run(c.Name(), func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ReadFrame(bytes.NewReader(frame)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
