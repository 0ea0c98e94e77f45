package edge

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"lcrs/internal/collab"
	"lcrs/internal/models"
	"lcrs/internal/tensor"
)

// Close lifecycle hardening. The batcher tests cover drain semantics;
// these cover the shutdown edges: repeated and concurrent Close calls,
// traffic racing shutdown, and registration after shutdown (which must
// not resurrect a coalescing goroutine a second Close would miss).

func inferFrame(t testing.TB, m *models.Composite, seed int64) []byte {
	t.Helper()
	g := tensor.NewRNG(seed)
	shared := m.ForwardShared(g.Uniform(-1, 1, 1, 1, 28, 28), false)
	var buf bytes.Buffer
	if err := collab.WriteTensorCodec(&buf, shared, collab.Raw); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCloseIdempotentAndConcurrent(t *testing.T) {
	s := newServer(t, WithBatching(8, DefaultBatchWait))
	if _, err := s.Register("demo", testModel(t)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Close()
		}()
	}
	wg.Wait()
	s.Close() // and again, sequentially
}

// Close is terminal: every registration and activation path afterwards
// must reject with ErrServerClosed instead of growing serving state a
// completed shutdown would never drain (the pre-versioning behavior was
// to silently serve such models unbatched — a model that "works" in a
// quick test and leaks goroutines in production).
func TestRegisterAfterCloseRejected(t *testing.T) {
	s := newServer(t, WithBatching(8, 30*time.Second)) // only Close could flush a batch
	m := testModel(t)
	version, err := s.Register("old", m)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	before := runtime.NumGoroutine()
	if _, err := s.Register("fresh", m); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Register after Close: got %v, want ErrServerClosed", err)
	}
	if _, err := s.RegisterVersion("fresh", m); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("RegisterVersion after Close: got %v, want ErrServerClosed", err)
	}
	if err := s.Activate("old", version); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Activate after Close: got %v, want ErrServerClosed", err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/bundle/fresh")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("rejected registration still serving: %d", resp.StatusCode)
	}
	// The pre-Close model keeps answering in-flight style traffic — Close
	// drains batchers, it does not unhost models.
	ir := postInfer(t, srv.URL+"/v1/infer/old", inferFrame(t, m, 31))
	if len(ir.Probs) == 0 {
		t.Fatal("pre-Close model stopped serving")
	}
	s.Close() // second Close: nothing to drain, must return immediately

	// The rejected registrations must not have spawned anything. Goroutine
	// counts are noisy (httptest, finished handlers), so only fail on
	// growth beyond that noise.
	time.Sleep(50 * time.Millisecond)
	if after := runtime.NumGoroutine(); after > before+10 {
		t.Fatalf("goroutines grew from %d to %d after post-Close Register", before, after)
	}
}

// Traffic racing Close must always get answers — either through the final
// drain or the direct fallback — and never panic on a closed batcher.
func TestConcurrentCloseAndInfer(t *testing.T) {
	s := newServer(t, WithBatching(4, time.Millisecond))
	m := testModel(t)
	if _, err := s.Register("demo", m); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	frame := inferFrame(t, m, 32)

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				postInfer(t, srv.URL+"/v1/infer/demo", frame)
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	s.Close()
	wg.Wait()

	st := s.Stats()[0]
	if st.InferRequests != workers*5 || st.InferErrors != 0 {
		t.Fatalf("requests racing Close were lost: %+v", st)
	}
}
