package webclient

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"sort"
	"testing"

	"lcrs/internal/edge"
	"lcrs/internal/models"
	"lcrs/internal/tensor"
)

// gatherBatch stacks the first n test samples into one NCHW tensor.
func gatherBatch(test interface {
	Sample(int) (*tensor.Tensor, int)
	SampleShape() []int
}, n int) (*tensor.Tensor, []int) {
	shape := test.SampleShape()
	per := shape[0] * shape[1] * shape[2]
	xs := tensor.New(append([]int{n}, shape...)...)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		x, l := test.Sample(i)
		copy(xs.Data[i*per:(i+1)*per], x.Data)
		labels[i] = l
	}
	return xs, labels
}

// Batched recognition must agree sample-for-sample with the one-at-a-time
// path on predictions and exit decisions.
func TestRecognizeBatchMatchesSingle(t *testing.T) {
	for _, tau := range []float64{0.0, 0.35, 1.0} {
		c, _, test, done := trainServeClient(t, tau)
		ctx := context.Background()
		n := 12
		xs, _ := gatherBatch(test, n)
		batch, err := c.RecognizeBatch(ctx, xs)
		if err != nil {
			done()
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			x, _ := test.Sample(i)
			single, err := c.Recognize(ctx, x)
			if err != nil {
				done()
				t.Fatal(err)
			}
			if batch[i].Pred != single.Pred || batch[i].Exited != single.Exited {
				done()
				t.Fatalf("tau=%v sample %d: batch (pred %d exit %v) vs single (pred %d exit %v)",
					tau, i, batch[i].Pred, batch[i].Exited, single.Pred, single.Exited)
			}
		}
		done()
	}
}

func TestRecognizeBatchValidation(t *testing.T) {
	c, err := New("http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	g := tensor.NewRNG(1)
	if _, err := c.RecognizeBatch(context.Background(), g.Uniform(0, 1, 2, 1, 28, 28)); err == nil {
		t.Fatal("batch without a model must fail")
	}
	cm, _, _, done := trainServeClient(t, 0.5)
	defer done()
	if _, err := cm.RecognizeBatch(context.Background(), g.Uniform(0, 1, 28, 28)); err == nil {
		t.Fatal("non-NCHW batch must be rejected")
	}
}

func TestRecognizeBatchFallbackOnOutage(t *testing.T) {
	c, _, test, done := trainServeClient(t, 0.0) // everything needs the edge
	done()                                       // kill the edge
	c.FallbackToBinary = true
	xs, _ := gatherBatch(test, 6)
	results, err := c.RecognizeBatch(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.Degraded {
			t.Fatalf("sample %d not marked degraded", i)
		}
		if r.Exited {
			t.Fatalf("sample %d must not be a confident exit", i)
		}
	}
}

// Batch row i is the recognition of sample i: a batch runs Recognize's
// steps, so two fresh clients on the same bundle, one scanning in batches
// and one frame by frame, take the same decisions, give the same answers
// and entropy bits, and report the same decision counts to their edges.
// Each batch's tau is its median entropy, so batches mix exits and
// offloads; with the session cache on, frames recur across batches and
// hit it.
func TestRecognizeBatchRowMatchesSingle(t *testing.T) {
	cfg := models.Config{Classes: 10, InC: 1, InH: 28, InW: 28, WidthScale: 0.08, Seed: 1}
	m, err := models.Build("lenet", cfg)
	if err != nil {
		t.Fatal(err)
	}
	const maxBatch = 5
	// maxBatch distinct frames for the batches, then one more that flushes
	// the exit and cache-hit backlogs to the edges at the end.
	frames := tensor.NewRNG(11).Uniform(0, 1, maxBatch+1, 1, 28, 28)
	per := len(frames.Data) / frames.Dim(0)
	ctx := context.Background()

	for _, cacheSize := range []int{0, 8} {
		t.Run(fmt.Sprintf("cache=%d", cacheSize), func(t *testing.T) {
			// serve loads a fresh client against its own edge, so each
			// edge's decision counters see one client only.
			serve := func() (*Client, *edge.Server) {
				t.Helper()
				s, err := edge.New()
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(s.Close)
				if _, err := s.Register("demo", m); err != nil {
					t.Fatal(err)
				}
				srv := httptest.NewServer(s.Handler())
				t.Cleanup(srv.Close)
				c, err := New(srv.URL, WithHTTPClient(srv.Client()), WithSessionCache(cacheSize))
				if err != nil {
					t.Fatal(err)
				}
				if err := c.LoadModel(ctx, "demo", "lenet", cfg, 1); err != nil {
					t.Fatal(err)
				}
				return c, s
			}
			batched, batchedEdge := serve()
			single, singleEdge := serve()
			probe, _ := serve() // tau = 1: reads entropies, sends nothing

			var exits, offloads, hits int
			compare := func(n int, tau float64) {
				t.Helper()
				for _, c := range []*Client{batched, single} {
					if err := c.SetTau(tau); err != nil {
						t.Fatal(err)
					}
				}
				xs := tensor.FromSlice(frames.Data[:n*per], n, 1, 28, 28)
				rows, err := batched.RecognizeBatch(ctx, xs)
				if err != nil {
					t.Fatal(err)
				}
				for i, got := range rows {
					want, err := single.Recognize(ctx, frames.Batch(i))
					if err != nil {
						t.Fatal(err)
					}
					if got.Pred != want.Pred || got.Exited != want.Exited || got.CacheHit != want.CacheHit ||
						got.BinaryPred != want.BinaryPred || math.Float64bits(got.Entropy) != math.Float64bits(want.Entropy) {
						t.Fatalf("batch of %d, row %d: %+v, single recognition: %+v", n, i, got, want)
					}
					switch {
					case got.Exited:
						exits++
					case got.CacheHit:
						hits++
					default:
						offloads++
					}
				}
			}
			for n := 1; n <= maxBatch; n++ {
				probed, err := probe.RecognizeBatch(ctx, tensor.FromSlice(frames.Data[:n*per], n, 1, 28, 28))
				if err != nil {
					t.Fatal(err)
				}
				entropies := make([]float64, n)
				for i, r := range probed {
					entropies[i] = r.Entropy
				}
				sort.Float64s(entropies)
				compare(n, entropies[n/2])
			}
			if exits == 0 || offloads == 0 || (cacheSize > 0) != (hits > 0) {
				t.Fatalf("paths taken: %d exits, %d offloads, %d cache hits", exits, offloads, hits)
			}

			// Flush: one offload of an unseen frame delivers both backlogs.
			for _, c := range []*Client{batched, single} {
				if err := c.SetTau(0); err != nil {
					t.Fatal(err)
				}
			}
			flush := frames.Batch(maxBatch)
			if _, err := batched.RecognizeBatch(ctx, flush.Reshape(1, 1, 28, 28)); err != nil {
				t.Fatal(err)
			}
			if _, err := single.Recognize(ctx, flush); err != nil {
				t.Fatal(err)
			}
			b, sg := batchedEdge.ExitStats()[0], singleEdge.ExitStats()[0]
			if b.OffloadedSamples != sg.OffloadedSamples || b.LocalExits != sg.LocalExits || b.ClientCacheHits != sg.ClientCacheHits {
				t.Fatalf("edge decision counts: batched client %+v, single client %+v", b, sg)
			}
		})
	}
}
