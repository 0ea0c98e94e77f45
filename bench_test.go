package lcrs

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"lcrs/internal/binary"
	"lcrs/internal/nn"
	"lcrs/internal/tensor"
)

// --- Kernel ablations: the load-bearing speed claims. ---

// Packed XNOR convolution vs a full-precision conv of identical geometry.
// The packed kernel is the paper's browser-side inference engine.
func convBenchSetup() (*binary.PackedConv2D, *nn.Conv2D, *tensor.Tensor) {
	g := tensor.NewRNG(1)
	pc := binary.PackConv2D(binary.NewConv2D("bc", g, 64, 128, 3, 3, 1, 1))
	fc := nn.NewConv2D("fc", g, 64, 128, 3, 3, 1, 1)
	x := g.Uniform(-1, 1, 1, 64, 16, 16)
	return pc, fc, x
}

func BenchmarkConvFloat(b *testing.B) {
	_, fc, x := convBenchSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fc.Forward(x, false)
	}
}

func BenchmarkConvBinaryPackedXNOR(b *testing.B) {
	pc, _, x := convBenchSetup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc.Forward(x)
	}
}

func BenchmarkLinearFloat(b *testing.B) {
	g := tensor.NewRNG(2)
	l := nn.NewLinear("fl", g, 4096, 1024)
	x := g.Uniform(-1, 1, 1, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(x, false)
	}
}

func BenchmarkLinearBinaryPackedXNOR(b *testing.B) {
	g := tensor.NewRNG(2)
	l := binary.PackLinear(binary.NewLinear("bl", g, 4096, 1024))
	x := g.Uniform(-1, 1, 1, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(x)
	}
}

func BenchmarkXnorDot(b *testing.B) {
	g := tensor.NewRNG(3)
	n := 4096
	av := g.Uniform(-1, 1, n)
	bv := g.Uniform(-1, 1, n)
	pa := make([]uint64, (n+63)/64)
	pb := make([]uint64, (n+63)/64)
	binary.PackSigns(pa, av.Data)
	binary.PackSigns(pb, bv.Data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.XnorDot(pa, pb, n)
	}
}

func BenchmarkFloatDot(b *testing.B) {
	g := tensor.NewRNG(3)
	n := 4096
	av := g.Uniform(-1, 1, n)
	bv := g.Uniform(-1, 1, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s float32
		for j := 0; j < n; j++ {
			s += av.Data[j] * bv.Data[j]
		}
		_ = s
	}
}

func BenchmarkMatMul(b *testing.B) {
	g := tensor.NewRNG(4)
	x := g.Uniform(-1, 1, 128, 256)
	y := g.Uniform(-1, 1, 256, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
}

// Bundle encode/decode: the model-loading path of the web client.
func BenchmarkBrowserBundleEncode(b *testing.B) {
	m, err := Build("lenet", ModelConfig{Classes: 10, InC: 3, InH: 32, InW: 32, WidthScale: 0.5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeBrowserBundle(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBrowserBundleDecode(b *testing.B) {
	cfg := ModelConfig{Classes: 10, InC: 3, InH: 32, InW: 32, WidthScale: 0.5, Seed: 1}
	m, err := Build("lenet", cfg)
	if err != nil {
		b.Fatal(err)
	}
	data, err := EncodeBrowserBundle(m)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Seed = 2
	dst, err := Build("lenet", cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeBrowserBundle(data, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientLoad is the whole model-loading path as a browser session
// pays it: bundle GET over loopback, inference-only skeleton, packed
// sections decoded straight into packed layers.
func BenchmarkClientLoad(b *testing.B) {
	cfg := ModelConfig{Classes: 10, InC: 3, InH: 32, InW: 32, WidthScale: 0.5, Seed: 1}
	m, err := Build("lenet", cfg)
	if err != nil {
		b.Fatal(err)
	}
	s := NewEdgeServer()
	defer s.Close()
	if _, err := s.Register("demo", m); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := NewWebClient(srv.URL).LoadModel(ctx, "demo", "lenet", cfg, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientExit is one exit recognition as a browser session pays it:
// a full-width AlexNet client loaded over loopback at tau = 1, so every
// frame is answered by conv1, the packed binary branch and the entropy test
// on the device. A/B the exit path with
// `go test -run=^$ -bench=ClientExit -count=10 .`.
func BenchmarkClientExit(b *testing.B) {
	cfg := ModelConfig{Classes: 10, InC: 3, InH: 32, InW: 32, WidthScale: 1, Seed: 1}
	m, err := Build("alexnet", cfg)
	if err != nil {
		b.Fatal(err)
	}
	s := NewEdgeServer()
	defer s.Close()
	if _, err := s.Register("alexnet", m); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	ctx := context.Background()
	c := NewWebClient(srv.URL)
	if err := c.LoadModel(ctx, "alexnet", "alexnet", cfg, 1); err != nil {
		b.Fatal(err)
	}
	x := tensor.NewRNG(2).Uniform(-1, 1, cfg.InC, cfg.InH, cfg.InW)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err := c.Recognize(ctx, x); err != nil || !res.Exited {
			b.Fatalf("exit recognition: %+v, %v", res, err)
		}
	}
}

// BenchmarkMainRestBatch is the edge server's share of an offload: a
// full-width AlexNet serving replica (arena scratch, warmed for the batch)
// runs rest-of-main on a batch of conv1 outputs, as the micro-batcher
// hands it one. ns/sample is what a batch buys per recognition; A/B it
// with `go test -run=^$ -bench=MainRestBatch -count=6 .`.
func BenchmarkMainRestBatch(b *testing.B) {
	m, err := Build("alexnet", ModelConfig{Classes: 10, InC: 3, InH: 32, InW: 32, WidthScale: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			rep := m.CloneForServing()
			rep.WarmMainRest(n)
			x := tensor.NewRNG(5).Uniform(0, 1, append([]int{n}, m.SharedOutShape()...)...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep.ResetScratch()
				rep.ForwardMainRest(x, false)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sample")
		})
	}
}

// Checkpoint save: the edge-side model artifact.
func BenchmarkCheckpointSave(b *testing.B) {
	m, err := Build("lenet", ModelConfig{Classes: 10, InC: 3, InH: 32, InW: 32, WidthScale: 0.5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := SaveModel(&buf, m); err != nil {
			b.Fatal(err)
		}
	}
}

// Algorithm 2 single-sample inference, both paths.
func BenchmarkCollabInfer(b *testing.B) {
	m, err := Build("lenet", ModelConfig{Classes: 10, InC: 1, InH: 28, InW: 28, WidthScale: 0.1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := GenerateDataset("mnist", 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tau  float64
	}{{"ExitAtBinary", 1}, {"EdgeCollaboration", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			rt, err := NewRuntime(m, tc.tau, DefaultCostModel())
			if err != nil {
				b.Fatal(err)
			}
			x, _ := ds.Sample(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.Infer(x)
			}
		})
	}
}
