package edge

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"lcrs/internal/collab"
	"lcrs/internal/nn"
	"lcrs/internal/tensor"
)

// An infer body larger than the largest valid frame is cut off at the cap
// and answered 413: one request, one error, and no replica checkout.
func TestInferBodyCap(t *testing.T) {
	s := newServer(t)
	m := testModel(t)
	if _, err := s.Register("demo", m); err != nil {
		t.Fatal(err)
	}
	e, _ := s.lookup("demo")
	h := s.Handler()
	post := func(frame []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer/demo", bytes.NewReader(frame)))
		return rec
	}

	// The largest valid request, a full raw v4 batch, fits the cap exactly.
	shape := append([]int{maxInferBatch}, m.SharedOutShape()...)
	var full bytes.Buffer
	tel := &collab.Telemetry{Entropy: 0.5, Tau: 0.2, BinaryPred: 1, LocalExits: 2, CacheHits: 3}
	if err := collab.WriteTensorTelemetry(&full, tensor.New(shape...), collab.Raw, tel); err != nil {
		t.Fatal(err)
	}
	if int64(full.Len()) != e.maxBody {
		t.Fatalf("a full raw v4 batch is %d bytes, cap %d", full.Len(), e.maxBody)
	}
	if rec := post(full.Bytes()); rec.Code != http.StatusOK {
		t.Fatalf("full batch: status %d (%s)", rec.Code, rec.Body.String())
	}

	// One sample more is over it.
	shape[0]++
	var over bytes.Buffer
	if err := collab.WriteTensor(&over, tensor.New(shape...)); err != nil {
		t.Fatal(err)
	}
	reqs, errs, checkouts := e.stats.InferRequests.Value(), e.stats.InferErrors.Value(), e.checkouts.Load()
	if rec := post(over.Bytes()); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized frame: status %d (%s), want 413", rec.Code, rec.Body.String())
	}
	if got := e.stats.InferRequests.Value() - reqs; got != 1 {
		t.Fatalf("oversized frame moved infer requests by %d, want 1", got)
	}
	if got := e.stats.InferErrors.Value() - errs; got != 1 {
		t.Fatalf("oversized frame moved infer errors by %d, want 1", got)
	}
	if got := e.checkouts.Load() - checkouts; got != 0 {
		t.Fatalf("oversized frame checked out %d replicas", got)
	}
}

// panicOnFlag passes activations through unchanged, except that it panics
// on a batch whose first element is flagValue.
type panicOnFlag struct{}

const flagValue = -12345

func (panicOnFlag) Name() string { return "panic-on-flag" }
func (panicOnFlag) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Data[0] == flagValue {
		panic("flagged input")
	}
	return x
}
func (panicOnFlag) Backward(dout *tensor.Tensor) *tensor.Tensor { return dout }
func (panicOnFlag) Params() []*nn.Param                         { return nil }
func (panicOnFlag) OutShape(in []int) []int                     { return in }
func (panicOnFlag) FLOPs([]int) int64                           { return 0 }

// A forward that panics must still hand its replica back: the pool keeps
// its size and the next request is served.
func TestForwardPanicReturnsReplica(t *testing.T) {
	s := newServer(t, WithReplicas(2))
	m := testModel(t)
	if _, err := s.Register("demo", m); err != nil {
		t.Fatal(err)
	}
	e, _ := s.lookup("demo")
	n := cap(e.replicas)
	for i := 0; i < n; i++ {
		r := <-e.replicas
		r.MainRest.Layers = append([]nn.Layer{panicOnFlag{}}, r.MainRest.Layers...)
		e.replicas <- r
	}

	g := tensor.NewRNG(5)
	shared := m.ForwardShared(g.Uniform(-1, 1, 1, 1, 28, 28), false)
	flagged := tensor.FromSlice(append([]float32(nil), shared.Data...), shared.Shape...)
	flagged.Data[0] = flagValue
	// More panics than replicas: a leaked replica would block the last one.
	for i := 0; i < n+1; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("flagged forward did not panic")
				}
			}()
			var o inferOutcome
			e.forward(flagged, []*batchRequest{{t: flagged, o: &o}})
		}()
		if len(e.replicas) != cap(e.replicas) {
			t.Fatalf("pool holds %d of %d replicas after a panicking forward", len(e.replicas), cap(e.replicas))
		}
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	var frame bytes.Buffer
	if err := collab.WriteTensor(&frame, shared); err != nil {
		t.Fatal(err)
	}
	got := postInfer(t, srv.URL+"/v1/infer/demo", frame.Bytes()).Pred
	if want := m.ForwardMainRest(shared, false).Argmax(); got != want {
		t.Fatalf("after the panics: pred %d, want %d", got, want)
	}
}
