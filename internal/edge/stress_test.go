package edge

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"lcrs/internal/collab"
	"lcrs/internal/tensor"
)

// TestStressConcurrentInference fires 64 goroutines x 16 requests at one
// model through the replica pool and checks every reply against the serial
// path's prediction. Forcing more replicas than CPUs makes several forward
// contexts live at once even on small CI hosts, so the race detector sees
// genuinely concurrent model execution.
func TestStressConcurrentInference(t *testing.T) {
	const (
		workers     = 64
		perWorker   = 16
		distinct    = 16 // distinct frames, cycled by the workers
		poolSize    = 4
		predictions = workers * perWorker
	)

	s := newServer(t, WithReplicas(poolSize))
	m := testModel(t)
	if _, err := s.Register("lenet-mnist", m); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Serial reference: predictions computed on the caller's model before
	// any traffic, so the comparison target never races with serving.
	g := tensor.NewRNG(11)
	frames := make([][]byte, distinct)
	want := make([]int, distinct)
	for i := range frames {
		x := g.Uniform(-1, 1, 1, 1, 28, 28)
		shared := m.ForwardShared(x, false)
		var buf bytes.Buffer
		if err := collab.WriteTensor(&buf, shared); err != nil {
			t.Fatal(err)
		}
		frames[i] = buf.Bytes()
		want[i] = m.ForwardMainRest(shared, false).Argmax()
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < perWorker; r++ {
				k := (w + r) % distinct
				resp, err := http.Post(srv.URL+"/v1/infer/lenet-mnist", "application/octet-stream",
					bytes.NewReader(frames[k]))
				if err != nil {
					errs <- err
					return
				}
				var ir InferResponse
				err = json.NewDecoder(resp.Body).Decode(&ir)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if ir.Pred != want[k] {
					errs <- fmt.Errorf("worker %d request %d: pred %d, serial path predicts %d", w, r, ir.Pred, want[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// All requests must be accounted, none as errors.
	for _, st := range s.Stats() {
		if st.Name != "lenet-mnist" {
			continue
		}
		if st.InferRequests != predictions || st.InferErrors != 0 {
			t.Fatalf("stats after stress: %+v, want %d requests and 0 errors", st, predictions)
		}
	}
}

// WithReplicas must bound live forward contexts: a pool of one serializes,
// and every checkout must return the context it borrowed.
func TestReplicaPoolBounded(t *testing.T) {
	s := newServer(t, WithReplicas(2))
	m := testModel(t)
	if _, err := s.Register("demo", m); err != nil {
		t.Fatal(err)
	}
	e, ok := s.lookup("demo")
	if !ok {
		t.Fatal("registered model not found")
	}
	if got := cap(e.replicas); got != 2 {
		t.Fatalf("pool capacity = %d, want 2", got)
	}
	a, b := <-e.replicas, <-e.replicas
	if a == m || b == m || a == b {
		t.Fatal("replicas must be distinct clones of the registered model")
	}
	select {
	case <-e.replicas:
		t.Fatal("empty pool must not yield a third context")
	default:
	}
	e.replicas <- a
	e.replicas <- b
	if got := len(e.replicas); got != 2 {
		t.Fatalf("pool has %d contexts after checkin, want 2", got)
	}
}
