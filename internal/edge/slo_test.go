package edge

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lcrs/internal/collab"
	"lcrs/internal/models"
	"lcrs/internal/slo"
	"lcrs/internal/tensor"
)

// fakeNow is an injectable clock for driving SLO windows without sleeping.
type fakeNow struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeNow() *fakeNow { return &fakeNow{t: time.Unix(1000, 0)} }

func (f *fakeNow) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeNow) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

// testSLOConfig grades error rate (and a generous latency ceiling) over
// short windows so burn transitions happen within a handful of requests.
func testSLOConfig() slo.Config {
	return slo.Config{
		Window:       12 * time.Second,
		FastWindow:   4 * time.Second,
		MinSamples:   5,
		MaxErrorRate: 0.2,
		LatencyP99:   time.Second,
	}
}

func goodFrame(t *testing.T, m *models.Composite) []byte {
	t.Helper()
	g := tensor.NewRNG(7)
	shared := m.ForwardShared(g.Uniform(-1, 1, 1, 1, 28, 28), false)
	return telemetryFrame(t, shared, &collab.Telemetry{Entropy: 0.5, Tau: 0.25, BinaryPred: 4, LocalExits: 1})
}

func sloInfer(t *testing.T, url string, body []byte) int {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func getHealth(t *testing.T, url string) (int, HealthResponse) {
	t.Helper()
	resp, err := http.Get(url + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, hr
}

// TestHealthBurnAndRecover drives the readiness contract end to end: a
// burst of failing requests flips /v1/health to 503 with the burning
// objective named, and clean traffic after the window rolls past the
// burst recovers it to 200 — all on an injected clock, no sleeping.
func TestHealthBurnAndRecover(t *testing.T) {
	fk := newFakeNow()
	s := newServer(t, WithSLO(testSLOConfig()))
	s.SLO().SetClock(fk.Now)
	m := testModel(t)
	if _, err := s.Register("demo", m); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	inferURL := srv.URL + "/v1/infer/demo"
	frame := goodFrame(t, m)

	// No traffic yet: no_data is healthy (a fresh edge must be routable).
	code, hr := getHealth(t, srv.URL)
	if code != http.StatusOK || hr.Status != "ok" || !hr.SLO {
		t.Fatalf("fresh server: code=%d resp=%+v", code, hr)
	}

	// Clean traffic: ok and ready.
	for i := 0; i < 8; i++ {
		if got := sloInfer(t, inferURL, frame); got != http.StatusOK {
			t.Fatalf("good infer returned %d", got)
		}
	}
	if code, hr = getHealth(t, srv.URL); code != http.StatusOK || hr.State == slo.StateFastBurn {
		t.Fatalf("healthy traffic: code=%d resp=%+v", code, hr)
	}

	// A burst of malformed frames (400s) pushes the fast-window error
	// rate to ~0.6 >> 0.2 with ample samples: fast_burn, readiness 503.
	for i := 0; i < 12; i++ {
		if got := sloInfer(t, inferURL, []byte("not a frame")); got != http.StatusBadRequest {
			t.Fatalf("bad infer returned %d", got)
		}
	}
	code, hr = getHealth(t, srv.URL)
	if code != http.StatusServiceUnavailable || hr.Status != "burning" {
		t.Fatalf("after error burst: code=%d resp=%+v", code, hr)
	}
	found := false
	for _, b := range hr.Burning {
		if b.Model == "demo" && b.Objective == slo.ObjErrorRate && b.Threshold == 0.2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("503 must name the burning objective: %+v", hr.Burning)
	}

	// /v1/slo agrees with the 503 (same Evaluate call backs both).
	var v slo.Verdict
	func() {
		resp, err := http.Get(srv.URL + "/v1/slo")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/slo: %s", resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}()
	if v.Healthy || v.State != slo.StateFastBurn {
		t.Fatalf("/v1/slo disagrees with 503: %+v", v)
	}

	// The lcrs_slo_* gauges tell the same story on /metrics.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `lcrs_slo_burning{model="demo",version="`) ||
		!strings.Contains(string(body), `objective="error_rate"} 3`) {
		t.Fatalf("exposition missing burn gauges:\n%s", body)
	}

	// Roll the windows past the burst, refill with clean traffic: ready.
	fk.Advance(13 * time.Second)
	for i := 0; i < 8; i++ {
		sloInfer(t, inferURL, frame)
	}
	code, hr = getHealth(t, srv.URL)
	if code != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("after recovery: code=%d resp=%+v", code, hr)
	}
}

// TestSLOSelfTrafficExcluded pins the skip discipline for windowed
// metrics: scrapes, health probes and debug views never count as
// traffic, so an idle-but-probed edge reads zero requests.
func TestSLOSelfTrafficExcluded(t *testing.T) {
	s := newServer(t, WithSLO(testSLOConfig()))
	m := testModel(t)
	if _, err := s.Register("demo", m); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for i := 0; i < 10; i++ {
		for _, p := range []string{"/metrics", "/v1/health", "/v1/slo", "/v1/models", "/v1/debug/requests"} {
			r, err := http.Get(srv.URL + p)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, r.Body)
			r.Body.Close()
		}
	}
	var v slo.Verdict
	getJSON(t, srv.URL+"/v1/slo", &v)
	if len(v.Targets) != 1 {
		t.Fatalf("targets = %+v", v.Targets)
	}
	for _, o := range v.Targets[0].Objectives {
		if o.Samples != 0 {
			t.Fatalf("self-traffic leaked into %s window: %+v", o.Name, o)
		}
		if o.State != slo.StateNoData {
			t.Fatalf("probed-but-idle edge must be no_data, got %+v", o)
		}
	}

	// One real inference is the only thing that moves the needle.
	sloInfer(t, srv.URL+"/v1/infer/demo", goodFrame(t, m))
	getJSON(t, srv.URL+"/v1/slo", &v)
	for _, o := range v.Targets[0].Objectives {
		if o.Name == slo.ObjErrorRate && o.Samples != 1 {
			t.Fatalf("infer not counted: %+v", o)
		}
	}
}

// TestPerVersionSLOWindows hot-swaps a second version and checks the two
// versions aggregate independently: separate sample counts in /v1/slo
// and separate version-labelled series on /metrics.
func TestPerVersionSLOWindows(t *testing.T) {
	s := newServer(t, WithSLO(testSLOConfig()))
	m1 := testModel(t)
	m2, err := models.Build("lenet", models.Config{
		Classes: 10, InC: 1, InH: 28, InW: 28, WidthScale: 0.08, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := s.Register("demo", m1)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	inferURL := srv.URL + "/v1/infer/demo"

	for i := 0; i < 3; i++ {
		sloInfer(t, inferURL, goodFrame(t, m1))
	}
	v2, err := s.RegisterVersion("demo", m2)
	if err != nil {
		t.Fatal(err)
	}
	if v2 == v1 {
		t.Fatal("distinct models must hash to distinct versions")
	}
	if err := s.Activate("demo", v2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		sloInfer(t, inferURL, goodFrame(t, m2))
	}

	var v slo.Verdict
	getJSON(t, srv.URL+"/v1/slo", &v)
	if len(v.Targets) != 2 {
		t.Fatalf("want one target per version, got %+v", v.Targets)
	}
	samples := map[string]int64{}
	for _, tgt := range v.Targets {
		if tgt.Model != "demo" {
			t.Fatalf("unexpected model %q", tgt.Model)
		}
		for _, o := range tgt.Objectives {
			if o.Name == slo.ObjErrorRate {
				samples[tgt.Version] = o.Samples
			}
		}
	}
	if samples[v1] != 3 || samples[v2] != 5 {
		t.Fatalf("per-version samples = %v, want {%s:3 %s:5}", samples, v1, v2)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, ver := range []string{v1, v2} {
		want := `lcrs_window_infer_rate{model="demo",version="` + ver + `"}`
		if !strings.Contains(string(body), want) {
			t.Fatalf("exposition missing %s:\n%s", want, body)
		}
	}
}
