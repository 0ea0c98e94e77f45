package webclient

import (
	"context"
	"math"
	"net/http/httptest"
	"runtime"
	"testing"

	"lcrs/internal/edge"
	"lcrs/internal/models"
	"lcrs/internal/tensor"
)

// The exit path runs out of reused memory: conv1, the packed binary branch
// and every float layer between them draw from the client build's arena,
// and the packed kernels keep their sign-bit scratch and run on the calling
// goroutine. tensor.ParallelFor hands its chunks to the pool by value and
// recycles its completion counter, so conv1's GEMM and the float
// classifier dispatch allocation-free at any worker count. What a warmed
// exit recognition still allocates is the input reshape and the softmax
// row: 7 objects and 0.2 KiB. The object budget is exactly that; the byte
// budget leaves a margin.
func TestRecognizeExitAllocs(t *testing.T) {
	if raceDetectorOn {
		t.Skip("race runtime allocates; budget only meaningful without -race")
	}
	const (
		maxKiB    = 4
		maxAllocs = 7
	)
	cfg := models.Config{Classes: 10, InC: 3, InH: 32, InW: 32, WidthScale: 0.25, Seed: 1}
	m, err := models.Build("alexnet", cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := edge.New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Register("alexnet", m); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c, err := New(srv.URL, WithHTTPClient(srv.Client()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.LoadModel(ctx, "alexnet", "alexnet", cfg, 1); err != nil {
		t.Fatal(err)
	}
	// Four chunks per ParallelFor whatever this host has, so the budget
	// covers a multi-core device's dispatch.
	prev := tensor.SetMaxWorkers(4)
	defer tensor.SetMaxWorkers(prev)

	x := tensor.NewRNG(3).Uniform(-1, 1, 3, 32, 32)
	recognize := func() {
		if res, err := c.Recognize(ctx, x); err != nil || !res.Exited {
			t.Fatalf("tau=1 recognition: %+v, %v", res, err)
		}
	}
	// The first recognition sizes the arena; the second grows its slabs as
	// it resets them, and AllocsPerRun's own warm-up run is that second one.
	recognize()
	allocs := testing.AllocsPerRun(20, recognize)

	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		recognize()
	}
	runtime.ReadMemStats(&m1)
	kib := float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / runs
	t.Logf("exit recognition: %.1f KiB, %.0f allocs", kib, allocs)
	if kib > maxKiB {
		t.Errorf("exit recognition allocates %.1f KiB, budget %d", kib, maxKiB)
	}
	if allocs > maxAllocs {
		t.Errorf("exit recognition allocates %.0f objects, budget %d", allocs, maxAllocs)
	}
}

// A recognition's tensors live in the installed model's arena until the
// next recognition. Across single and batched recognitions and a version
// swap, every answer must be bitwise the one a fresh client on that version
// gives: nothing a recognition leaves in the arena, and nothing the
// replaced model's arena holds, can reach a later answer.
func TestRecognitionsAcrossVersionSwap(t *testing.T) {
	c, _, s, m2, done := newSwapRig(t, 1) // tau=1: every answer is the local one
	defer done()
	defer s.Close()
	ctx := context.Background()
	x := sampleFrame(t)
	xs := tensor.NewRNG(5).Uniform(0, 1, 3, 1, 28, 28)

	fresh := func() *Client {
		t.Helper()
		f, err := New(c.base, WithHTTPClient(c.http))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.LoadModel(ctx, c.modelName, c.model.Name, c.model.Cfg, 1); err != nil {
			t.Fatal(err)
		}
		return f
	}
	same := func(what string, got, want Result) {
		t.Helper()
		if math.Float64bits(got.Entropy) != math.Float64bits(want.Entropy) ||
			got.Pred != want.Pred || got.BinaryPred != want.BinaryPred || got.Exited != want.Exited {
			t.Fatalf("%s: got %+v, a fresh client says %+v", what, got, want)
		}
	}
	recognize := func(cl *Client) Result {
		t.Helper()
		res, err := cl.Recognize(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	batch := func(cl *Client) []Result {
		t.Helper()
		res, err := cl.RecognizeBatch(ctx, xs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	v1 := fresh()
	first := recognize(c)
	same("v1 recognize", first, recognize(v1))
	want := batch(v1)
	for i, got := range batch(c) {
		same("v1 batch", got, want[i])
	}

	if _, err := s.Register("demo", m2); err != nil {
		t.Fatal(err)
	}
	if changed, err := c.RevalidateBundle(ctx); err != nil || !changed {
		t.Fatalf("revalidate: changed=%v err=%v", changed, err)
	}
	after := recognize(c)
	same("v2 recognize", after, recognize(fresh()))
	if math.Float64bits(after.Entropy) == math.Float64bits(first.Entropy) {
		t.Fatal("both versions give the frame the same entropy: the swap is not observable")
	}
}
