package edge

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"lcrs/internal/collab"
	"lcrs/internal/tensor"
)

func TestStatsCounters(t *testing.T) {
	s := newServer(t)
	m := testModel(t)
	if _, err := s.Register("demo", m); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// One bundle download.
	resp, err := http.Get(srv.URL + "/v1/bundle/demo")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Two good inferences and one bad one.
	g := tensor.NewRNG(1)
	for i := 0; i < 2; i++ {
		x := g.Uniform(-1, 1, 1, 1, 28, 28)
		shared := m.ForwardShared(x, false)
		var buf bytes.Buffer
		if err := collab.WriteTensorCodec(&buf, shared, collab.Raw); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/infer/demo", "application/octet-stream", &buf)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	var bad bytes.Buffer
	if err := collab.WriteTensorCodec(&bad, g.Uniform(0, 1, 2, 2), collab.Raw); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/v1/infer/demo", "application/octet-stream", &bad)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats []ModelStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	st := stats[0]
	if st.Name != "demo" {
		t.Fatalf("name = %s", st.Name)
	}
	if st.BundleDownloads != 1 {
		t.Fatalf("bundle downloads = %d, want 1", st.BundleDownloads)
	}
	if st.InferRequests != 3 {
		t.Fatalf("infer requests = %d, want 3", st.InferRequests)
	}
	if st.InferErrors != 1 {
		t.Fatalf("infer errors = %d, want 1", st.InferErrors)
	}
	if st.AvgComputeMicros < 0 {
		t.Fatalf("avg compute = %d", st.AvgComputeMicros)
	}
}

func TestStatsEmptyServer(t *testing.T) {
	s := newServer(t)
	if got := s.Stats(); len(got) != 0 {
		t.Fatalf("empty server stats = %+v", got)
	}
}

// /v1/models and /v1/stats list models by name, not in map order, so two
// reads of a multi-model edge are identical.
func TestModelListsSortedByName(t *testing.T) {
	s := newServer(t)
	m := testModel(t)
	for _, name := range []string{"gamma", "alpha", "beta"} {
		if _, err := s.Register(name, m); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	names := func(path string) []string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body []struct{ Name string }
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, b := range body {
			out = append(out, b.Name)
		}
		return out
	}
	want := "[alpha beta gamma]"
	for i := 0; i < 8; i++ {
		for _, path := range []string{"/v1/models", "/v1/stats"} {
			if got := fmt.Sprint(names(path)); got != want {
				t.Fatalf("read %d of %s lists %s, want %s", i, path, got, want)
			}
		}
	}
}
