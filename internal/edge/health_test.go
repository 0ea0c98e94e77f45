package edge

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestHealthGoldenResponses pins the exact /v1/health wire bodies — the
// readiness endpoint is consumed by load balancers and fleet gateways,
// so its JSON shape is a compatibility contract, not an implementation
// detail. Values in the burning body are deterministic: seeded model
// (fixed content version), injected clock, counted traffic.
func TestHealthGoldenResponses(t *testing.T) {
	// Without an SLO engine the endpoint is a plain 200 so probes can be
	// pointed at any edge unconditionally.
	bare := newServer(t)
	bareSrv := httptest.NewServer(bare.Handler())
	defer bareSrv.Close()
	if got := fetchBody(t, bareSrv.URL+"/v1/health", http.StatusOK); got != `{"status":"ok","slo":false}`+"\n" {
		t.Fatalf("engine-less body = %q", got)
	}

	fk := newFakeNow()
	s := newServer(t, WithSLO(testSLOConfig()))
	s.SLO().SetClock(fk.Now)
	m := testModel(t)
	version, err := s.Register("demo", m)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Idle engine: graded but no data — still ready.
	if got := fetchBody(t, srv.URL+"/v1/health", http.StatusOK); got != `{"status":"ok","slo":true,"state":"no_data"}`+"\n" {
		t.Fatalf("idle body = %q", got)
	}

	// 5 good + 15 bad requests: error rate exactly 0.75 in both windows.
	frame := goodFrame(t, m)
	for i := 0; i < 5; i++ {
		sloInfer(t, srv.URL+"/v1/infer/demo", frame)
	}
	for i := 0; i < 15; i++ {
		sloInfer(t, srv.URL+"/v1/infer/demo", []byte("junk"))
	}
	want := fmt.Sprintf(`{"status":"burning","slo":true,"state":"fast_burn",`+
		`"burning":[{"model":"demo","version":%q,"objective":"error_rate","value":0.75,"threshold":0.2}]}`+"\n",
		version)
	if got := fetchBody(t, srv.URL+"/v1/health", http.StatusServiceUnavailable); got != want {
		t.Fatalf("burning body:\n got %q\nwant %q", got, want)
	}
}

// TestSLOResponseStructure checks /v1/slo structurally (values move with
// traffic, so the shape is the contract): top-level verdict fields plus
// per-target objective records with every grading field present.
func TestSLOResponseStructure(t *testing.T) {
	s := newServer(t, WithSLO(testSLOConfig()))
	m := testModel(t)
	if _, err := s.Register("demo", m); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	sloInfer(t, srv.URL+"/v1/infer/demo", goodFrame(t, m))

	var v map[string]any
	if err := json.Unmarshal([]byte(fetchBody(t, srv.URL+"/v1/slo", http.StatusOK)), &v); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"healthy", "state", "window_secs", "fast_window_secs", "targets"} {
		if _, ok := v[key]; !ok {
			t.Fatalf("verdict missing %q: %v", key, v)
		}
	}
	targets := v["targets"].([]any)
	if len(targets) != 1 {
		t.Fatalf("targets = %v", targets)
	}
	target := targets[0].(map[string]any)
	for _, key := range []string{"model", "version", "burning", "objectives"} {
		if _, ok := target[key]; !ok {
			t.Fatalf("target missing %q: %v", key, target)
		}
	}
	objs := target["objectives"].([]any)
	if len(objs) == 0 {
		t.Fatal("no objectives graded")
	}
	for _, o := range objs {
		obj := o.(map[string]any)
		for _, key := range []string{"name", "state", "value", "fast_value", "threshold", "samples"} {
			if _, ok := obj[key]; !ok {
				t.Fatalf("objective missing %q: %v", key, obj)
			}
		}
	}

	// Engine-less servers answer 404 so operators notice a misconfigured
	// scrape instead of reading an empty verdict.
	bare := newServer(t)
	bareSrv := httptest.NewServer(bare.Handler())
	defer bareSrv.Close()
	fetchBody(t, bareSrv.URL+"/v1/slo", http.StatusNotFound)
}

// fetchBody GETs url, asserts the status code, and returns the body.
func fetchBody(t *testing.T, url string, wantCode int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d: %s", url, resp.StatusCode, wantCode, body)
	}
	return string(body)
}
