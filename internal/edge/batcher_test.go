package edge

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lcrs/internal/collab"
	"lcrs/internal/tensor"
)

// postInfer sends one tensor frame and decodes the response.
func postInfer(t *testing.T, url string, frame []byte) collab.InferResponse {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer: %s", resp.Status)
	}
	var ir collab.InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	return ir
}

// Coalesced forwards must be bitwise identical to per-request ones: the
// conv GEMMs and the linear MatMulTransB treat each sample independently
// with a fixed accumulation order, so stacking requests into one batch
// may not move a single bit of any prediction or probability.
func TestBatchedBitwiseIdenticalToUnbatched(t *testing.T) {
	m := testModel(t)
	const n = 6

	g := tensor.NewRNG(7)
	frames := make([][]byte, n)
	for i := range frames {
		shared := m.ForwardShared(g.Uniform(-1, 1, 1, 1, 28, 28), false)
		var buf bytes.Buffer
		if err := collab.WriteTensorCodec(&buf, shared, collab.Raw); err != nil {
			t.Fatal(err)
		}
		frames[i] = buf.Bytes()
	}

	// Reference: a plain server with batching off.
	plain := newServer(t)
	if _, err := plain.Register("lenet-mnist", m); err != nil {
		t.Fatal(err)
	}
	psrv := httptest.NewServer(plain.Handler())
	defer psrv.Close()
	want := make([]collab.InferResponse, n)
	for i, f := range frames {
		want[i] = postInfer(t, psrv.URL+"/v1/infer/lenet-mnist", f)
	}

	// Batching server with a generous wait so the concurrent burst is
	// guaranteed to coalesce rather than racing the deadline.
	s := newServer(t, WithBatching(n, 500*time.Millisecond))
	if _, err := s.Register("lenet-mnist", m); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	got := make([]collab.InferResponse, n)
	var wg sync.WaitGroup
	for i := range frames {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = postInfer(t, srv.URL+"/v1/infer/lenet-mnist", frames[i])
		}(i)
	}
	wg.Wait()

	for i := range got {
		if got[i].Pred != want[i].Pred {
			t.Fatalf("request %d: batched pred %d, unbatched %d", i, got[i].Pred, want[i].Pred)
		}
		if len(got[i].Probs) != len(want[i].Probs) {
			t.Fatalf("request %d: probs length %d vs %d", i, len(got[i].Probs), len(want[i].Probs))
		}
		for j := range got[i].Probs {
			if got[i].Probs[j] != want[i].Probs[j] {
				t.Fatalf("request %d prob %d: batched %v != unbatched %v (must be bitwise identical)",
					i, j, got[i].Probs[j], want[i].Probs[j])
			}
		}
	}

	st := s.Stats()[0]
	if st.InferRequests != n || st.BatchedRequests != n {
		t.Fatalf("stats: %+v, want %d batched requests", st, n)
	}
	if st.CoalescedRequests == 0 {
		t.Fatalf("no requests coalesced despite %d concurrent posts and a %v wait: %+v",
			n, 500*time.Millisecond, st)
	}
	if st.Batches == 0 || st.Batches >= n {
		t.Fatalf("expected fewer batches than requests: %+v", st)
	}
	var histTotal int64
	for _, b := range st.BatchSizeHist {
		histTotal += b.Count
	}
	if histTotal != st.Batches {
		t.Fatalf("histogram counts %d batches, stats say %d: %+v", histTotal, st.Batches, st)
	}

	// The counters travel through /v1/stats JSON.
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, key := range []string{"batched_requests", "coalesced_requests", "batches", "batch_size_hist"} {
		if !strings.Contains(body.String(), key) {
			t.Fatalf("/v1/stats missing %q:\n%s", key, body.String())
		}
	}
}

// A lone request must not wait for peers that never come: the deadline
// fires and the batch of one proceeds.
func TestBatcherDeadlineFiresForSingleRequest(t *testing.T) {
	m := testModel(t)
	s := newServer(t, WithBatching(8, 20*time.Millisecond))
	if _, err := s.Register("lenet-mnist", m); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	g := tensor.NewRNG(8)
	shared := m.ForwardShared(g.Uniform(-1, 1, 1, 1, 28, 28), false)
	var buf bytes.Buffer
	if err := collab.WriteTensorCodec(&buf, shared, collab.Raw); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ir := postInfer(t, srv.URL+"/v1/infer/lenet-mnist", buf.Bytes())
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("single request took %v; the deadline did not fire", elapsed)
	}
	if want := m.ForwardMainRest(shared, false).Argmax(); ir.Pred != want {
		t.Fatalf("pred %d, want %d", ir.Pred, want)
	}
	st := s.Stats()[0]
	if st.Batches != 1 || st.BatchedRequests != 1 || st.CoalescedRequests != 0 {
		t.Fatalf("lone request stats: %+v", st)
	}
}

// A request whose own batch already meets the cap gains nothing from
// queueing and must bypass the coalescing path entirely.
func TestBatcherOversizedRequestBypasses(t *testing.T) {
	m := testModel(t)
	s := newServer(t, WithBatching(2, 500*time.Millisecond))
	if _, err := s.Register("lenet-mnist", m); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	g := tensor.NewRNG(9)
	shared := m.ForwardShared(g.Uniform(-1, 1, 4, 1, 28, 28), false)
	var buf bytes.Buffer
	if err := collab.WriteTensorCodec(&buf, shared, collab.Raw); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ir := postInfer(t, srv.URL+"/v1/infer/lenet-mnist", buf.Bytes())
	if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
		t.Fatalf("oversized request took %v; it must not sit out the batch deadline", elapsed)
	}
	if len(ir.Preds) != 4 {
		t.Fatalf("preds = %v, want 4 entries", ir.Preds)
	}
	want := argmaxRows(m.ForwardMainRest(shared, false), 0, 4)
	for i, p := range ir.Preds {
		if p != want[i] {
			t.Fatalf("sample %d: pred %d, want %d", i, p, want[i])
		}
	}
	st := s.Stats()[0]
	if st.InferRequests != 1 || st.BatchedRequests != 0 || st.Batches != 0 {
		t.Fatalf("bypass stats: %+v", st)
	}
}

// The cap is a ceiling, not a trigger to overshoot: with max 4, a parked
// request of 3 samples and a second of 3 must run as two forwards of 3
// (the replicas were warmed for batches of at most 4), not one of 6.
func TestBatcherNeverExceedsCap(t *testing.T) {
	m := testModel(t)
	s := newServer(t, WithBatching(4, time.Second))
	if _, err := s.Register("lenet-mnist", m); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	g := tensor.NewRNG(12)
	shared := make([]*tensor.Tensor, 2)
	frames := make([][]byte, 2)
	for i := range frames {
		shared[i] = m.ForwardShared(g.Uniform(-1, 1, 3, 1, 28, 28), false)
		var buf bytes.Buffer
		if err := collab.WriteTensorCodec(&buf, shared[i], collab.Raw); err != nil {
			t.Fatal(err)
		}
		frames[i] = buf.Bytes()
	}
	got := make([]collab.InferResponse, 2)
	var wg sync.WaitGroup
	for i := range frames {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = postInfer(t, srv.URL+"/v1/infer/lenet-mnist", frames[i])
		}(i)
		// The first request parks before the second arrives, well inside
		// its one-second deadline.
		time.Sleep(100 * time.Millisecond)
	}
	wg.Wait()

	for i, ir := range got {
		logits := m.ForwardMainRest(shared[i], false)
		want := argmaxRows(logits, 0, 3)
		if len(ir.Preds) != len(want) {
			t.Fatalf("request %d: preds %v, want %v", i, ir.Preds, want)
		}
		for j, p := range ir.Preds {
			if p != want[j] {
				t.Fatalf("request %d sample %d: pred %d, want %d", i, j, p, want[j])
			}
		}
		probs := make([]float32, logits.Dim(1))
		tensor.SoftmaxRow(probs, logits.Row(0))
		for j, p := range ir.Probs {
			if p != probs[j] {
				t.Fatalf("request %d prob %d: %v, want %v (must be bitwise identical)", i, j, p, probs[j])
			}
		}
	}
	st := s.Stats()[0]
	if st.Batches != 2 || st.BatchedRequests != 2 || st.CoalescedRequests != 0 {
		t.Fatalf("want two uncoalesced forwards of 3: %+v", st)
	}
	for _, b := range st.BatchSizeHist {
		if b.Le > 4 {
			t.Fatalf("a forward of more than 4 samples ran: %+v", st.BatchSizeHist)
		}
	}
}

// Close during a long coalescing wait must flush parked requests
// immediately — shutdown does not sit out the deadline — and later
// requests still get answers through the direct path.
func TestBatcherCloseDrainsParkedRequests(t *testing.T) {
	m := testModel(t)
	s := newServer(t, WithBatching(64, 30*time.Second)) // nothing fills this; only Close can flush
	if _, err := s.Register("lenet-mnist", m); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	g := tensor.NewRNG(10)
	shared := m.ForwardShared(g.Uniform(-1, 1, 1, 1, 28, 28), false)
	var buf bytes.Buffer
	if err := collab.WriteTensorCodec(&buf, shared, collab.Raw); err != nil {
		t.Fatal(err)
	}
	want := m.ForwardMainRest(shared, false).Argmax()

	const parked = 4
	var wg sync.WaitGroup
	results := make([]collab.InferResponse, parked)
	for i := 0; i < parked; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = postInfer(t, srv.URL+"/v1/infer/lenet-mnist", buf.Bytes())
		}(i)
	}
	// Let the requests reach the collect loop, then shut down well before
	// the 30s deadline could fire.
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	s.Close()
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("drain took %v; Close must not wait out the deadline", elapsed)
	}
	for i, ir := range results {
		if ir.Pred != want {
			t.Fatalf("drained request %d: pred %d, want %d", i, ir.Pred, want)
		}
	}

	// After Close the server still answers, unbatched.
	ir := postInfer(t, srv.URL+"/v1/infer/lenet-mnist", buf.Bytes())
	if ir.Pred != want {
		t.Fatalf("post-close pred %d, want %d", ir.Pred, want)
	}
	s.Close() // idempotent
}
