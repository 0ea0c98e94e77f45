package edge

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"lcrs/internal/collab"
	"lcrs/internal/tensor"
)

// Concurrent batched inference on the arena serving path must return
// probabilities bitwise identical to a plain heap-allocating clone's
// forward: encoding/json round-trips float32 exactly, so the comparison
// holds through the full HTTP path. Run under -race this also shakes out
// data races between replicas sharing weights, the batcher's scatter loop,
// and arena recycling.
func TestInferFusedBitwiseMatchesLegacyUnderLoad(t *testing.T) {
	s := newServer(t, WithBatching(4, 0), WithReplicas(2))
	m := testModel(t)
	if _, err := s.Register("lenet-mnist", m); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Reference probabilities from a plain (non-arena) clone.
	ref := m.CloneForInference()
	g := tensor.NewRNG(29)
	const jobs = 24
	type job struct {
		frame []byte
		want  []float32
	}
	js := make([]job, jobs)
	for i := range js {
		x := g.Uniform(-1, 1, 1, 1, 28, 28)
		shared := m.ForwardShared(x, false)
		var buf bytes.Buffer
		if err := collab.WriteTensor(&buf, shared); err != nil {
			t.Fatal(err)
		}
		logits := ref.ForwardMainRest(shared, false)
		probs := make([]float32, logits.Dim(1))
		tensor.SoftmaxRow(probs, logits.Row(0))
		js[i] = job{frame: buf.Bytes(), want: probs}
	}

	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for i := range js {
		wg.Add(1)
		go func(id int, j job) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/infer/lenet-mnist", "application/octet-stream",
				bytes.NewReader(j.frame))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("job %d: %s", id, resp.Status)
				return
			}
			var ir InferResponse
			if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
				errs <- fmt.Errorf("job %d: %v", id, err)
				return
			}
			if len(ir.Probs) != len(j.want) {
				errs <- fmt.Errorf("job %d: %d probs, want %d", id, len(ir.Probs), len(j.want))
				return
			}
			for k := range j.want {
				if math.Float32bits(ir.Probs[k]) != math.Float32bits(j.want[k]) {
					errs <- fmt.Errorf("job %d: prob %d = %x, reference %x", id, k,
						math.Float32bits(ir.Probs[k]), math.Float32bits(j.want[k]))
					return
				}
			}
		}(i, js[i])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
