package edge

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"lcrs/internal/collab"
	"lcrs/internal/models"
	"lcrs/internal/tensor"
)

func testModel(t testing.TB) *models.Composite {
	t.Helper()
	m, err := models.Build("lenet", models.Config{
		Classes: 10, InC: 1, InH: 28, InW: 28, WidthScale: 0.08, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newServer constructs a server through the options API, failing the test
// on construction errors (only possible with invalid options).
func newServer(t testing.TB, opts ...Option) *Server {
	t.Helper()
	s, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRegisterValidation(t *testing.T) {
	s := newServer(t)
	m := testModel(t)
	for _, bad := range []string{"", "a/b", "a b"} {
		if _, err := s.Register(bad, m); err == nil {
			t.Errorf("Register(%q) accepted", bad)
		}
	}
	if _, err := s.Register("lenet-mnist", m); err != nil {
		t.Fatal(err)
	}
	infos := s.Models()
	if len(infos) != 1 || infos[0].Name != "lenet-mnist" || infos[0].Arch != "lenet" {
		t.Fatalf("Models() = %+v", infos)
	}
	if infos[0].BundleBytes <= 0 {
		t.Fatal("bundle must be precomputed")
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s := newServer(t)
	m := testModel(t)
	if _, err := s.Register("lenet-mnist", m); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// healthz
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp.Status)
	}
	resp.Body.Close()

	// models listing
	resp, err = http.Get(srv.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var infos []collab.ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 {
		t.Fatalf("models = %+v", infos)
	}

	// bundle download
	resp, err = http.Get(srv.URL + "/v1/bundle/lenet-mnist")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bundle: %s", resp.Status)
	}
	resp.Body.Close()

	// unknown bundle
	resp, _ = http.Get(srv.URL + "/v1/bundle/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown bundle: %s", resp.Status)
	}
	resp.Body.Close()

	// inference on the shared-prefix output
	g := tensor.NewRNG(2)
	x := g.Uniform(-1, 1, 1, 1, 28, 28)
	shared := m.ForwardShared(x, false)
	var buf bytes.Buffer
	if err := collab.WriteTensor(&buf, shared); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/v1/infer/lenet-mnist", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer: %s", resp.Status)
	}
	var ir collab.InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want := m.ForwardMainRest(shared, false).Argmax()
	if ir.Pred != want {
		t.Fatalf("server pred %d, local pred %d", ir.Pred, want)
	}
	if len(ir.Probs) != 10 {
		t.Fatalf("probs has %d entries", len(ir.Probs))
	}

	// wrong-shape tensor must 400
	var bad bytes.Buffer
	if err := collab.WriteTensor(&bad, g.Uniform(0, 1, 3, 3)); err != nil {
		t.Fatal(err)
	}
	resp, _ = http.Post(srv.URL+"/v1/infer/lenet-mnist", "application/octet-stream", &bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad shape: %s", resp.Status)
	}
	resp.Body.Close()

	// GET on infer must 405
	resp, _ = http.Get(srv.URL + "/v1/infer/lenet-mnist")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET infer: %s", resp.Status)
	}
	resp.Body.Close()

	// garbage body must 400
	resp, _ = http.Post(srv.URL+"/v1/infer/lenet-mnist", "application/octet-stream",
		bytes.NewReader([]byte("not a tensor")))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: %s", resp.Status)
	}
	resp.Body.Close()
}

// Concurrent inference requests must all succeed and agree with local
// evaluation — the edge server is shared by many browsers in the paper's
// topology (Figure 8).
func TestConcurrentInference(t *testing.T) {
	s := newServer(t)
	m := testModel(t)
	if _, err := s.Register("lenet-mnist", m); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	g := tensor.NewRNG(3)
	const workers = 8
	type job struct {
		frame []byte
		want  int
	}
	jobs := make([]job, workers)
	for i := range jobs {
		x := g.Uniform(-1, 1, 1, 1, 28, 28)
		shared := m.ForwardShared(x, false)
		var buf bytes.Buffer
		if err := collab.WriteTensor(&buf, shared); err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{frame: buf.Bytes(), want: m.ForwardMainRest(shared, false).Argmax()}
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/infer/lenet-mnist", "application/octet-stream",
				bytes.NewReader(j.frame))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var ir collab.InferResponse
			if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
				errs <- err
				return
			}
			if ir.Pred != j.want {
				errs <- &mismatchError{got: ir.Pred, want: j.want}
			}
		}(jobs[i])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type mismatchError struct{ got, want int }

func (e *mismatchError) Error() string {
	return "concurrent inference mismatch"
}
