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

// getJSON decodes a GET endpoint into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// telemetryFrame encodes shared with a v3 telemetry block attached.
func telemetryFrame(t *testing.T, shared *tensor.Tensor, tel *collab.Telemetry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := collab.WriteTensorTelemetry(&buf, shared, collab.Raw, tel); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecisionTelemetry is the tentpole's end-to-end edge test: v3 frames
// feed the lcrs_exit_*/lcrs_agree_* families, the response reports
// agreement, and GET /v1/exitstats reconciles exactly with /metrics.
func TestDecisionTelemetry(t *testing.T) {
	s := newServer(t)
	m := testModel(t)
	if _, err := s.Register("demo", m); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	g := tensor.NewRNG(31)
	shared := m.ForwardShared(g.Uniform(-1, 1, 1, 1, 28, 28), false)
	// First request discovers the edge's main-branch answer so the test
	// can steer agreement deterministically.
	probe := postInfer(t, srv.URL+"/v1/infer/demo", telemetryFrame(t, shared, nil))
	mainPred := probe.Pred

	// Two agreeing frames (one piggybacking 3 local exits), one
	// disagreeing.
	agreeTel := &collab.Telemetry{Entropy: 0.55, Tau: 0.3, BinaryPred: mainPred, LocalExits: 3}
	ir := postInfer(t, srv.URL+"/v1/infer/demo", telemetryFrame(t, shared, agreeTel))
	if ir.BinaryAgree == nil || !*ir.BinaryAgree {
		t.Fatalf("BinaryAgree = %v, want true", ir.BinaryAgree)
	}
	if ir.RequestID == "" {
		t.Fatal("InferResponse.RequestID missing")
	}
	postInfer(t, srv.URL+"/v1/infer/demo",
		telemetryFrame(t, shared, &collab.Telemetry{Entropy: 0.9, Tau: 0.3, BinaryPred: mainPred}))
	disagree := &collab.Telemetry{Entropy: 0.75, Tau: 0.3, BinaryPred: (mainPred + 1) % 10}
	ir = postInfer(t, srv.URL+"/v1/infer/demo", telemetryFrame(t, shared, disagree))
	if ir.BinaryAgree == nil || *ir.BinaryAgree {
		t.Fatalf("BinaryAgree = %v, want false", ir.BinaryAgree)
	}

	samples := scrape(t, srv.URL)
	model := `{model="demo"}`
	for series, want := range map[string]float64{
		metricExitDecisions + `{model="demo",decision="local"}`:   3,
		metricExitDecisions + `{model="demo",decision="offload"}`: 4,
		metricExitReported + model:                                3,
		metricAgree + `{model="demo",agree="yes"}`:                2,
		metricAgree + `{model="demo",agree="no"}`:                 1,
		metricExitEntropy + "_count" + model:                      3,
		metricExitTauMargin + "_count" + model:                    3,
	} {
		if got := samples[series]; got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}

	// /v1/exitstats reads the same atomics, so it must agree exactly.
	var stats []ExitStats
	getJSON(t, srv.URL+"/v1/exitstats", &stats)
	if len(stats) != 1 {
		t.Fatalf("exitstats: %+v", stats)
	}
	es := stats[0]
	if es.Name != "demo" || es.LocalExits != 3 || es.OffloadedSamples != 4 ||
		es.TelemetryRequests != 3 || es.Agree != 2 || es.Disagree != 1 {
		t.Fatalf("/v1/exitstats does not reconcile with /metrics: %+v", es)
	}
	if want := 3.0 / 7.0; es.ExitRate < want-1e-9 || es.ExitRate > want+1e-9 {
		t.Fatalf("exit rate = %v, want %v", es.ExitRate, want)
	}
	if want := 2.0 / 3.0; es.AgreeRate < want-1e-9 || es.AgreeRate > want+1e-9 {
		t.Fatalf("agree rate = %v, want %v", es.AgreeRate, want)
	}
	if es.EntropyCount != 3 {
		t.Fatalf("entropy count = %d, want 3", es.EntropyCount)
	}
	// Mean of {0.55, 0.9, 0.75}; the wire carries float32, allow rounding.
	if mean := (0.55 + 0.9 + 0.75) / 3; es.EntropyMean < mean-1e-6 || es.EntropyMean > mean+1e-6 {
		t.Fatalf("entropy mean = %v, want ~%v", es.EntropyMean, mean)
	}
	if es.EntropyP50 <= 0 || es.EntropyP50 > 1 || es.TauMarginP50 <= 0 {
		t.Fatalf("quantiles out of range: %+v", es)
	}
}

// TestTelemetryBackwardCompat is the backward-compat golden test: old
// clients sending v1/v2 frames without telemetry still decode, serve and
// count, while agreement and entropy metrics simply don't move.
func TestTelemetryBackwardCompat(t *testing.T) {
	s := newServer(t)
	m := testModel(t)
	if _, err := s.Register("demo", m); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	g := tensor.NewRNG(32)
	shared := m.ForwardShared(g.Uniform(-1, 1, 1, 1, 28, 28), false)
	var v1 bytes.Buffer
	if err := collab.WriteTensorCodec(&v1, shared, collab.Raw); err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := collab.WriteTensorCodec(&v2, shared, collab.F16); err != nil {
		t.Fatal(err)
	}
	for _, frame := range [][]byte{v1.Bytes(), v2.Bytes()} {
		ir := postInfer(t, srv.URL+"/v1/infer/demo", frame)
		if ir.BinaryAgree != nil {
			t.Fatalf("telemetry-less frame produced an agreement verdict: %+v", ir)
		}
		if ir.RequestID == "" {
			t.Fatal("telemetry-less requests still get correlation IDs")
		}
	}

	samples := scrape(t, srv.URL)
	if got := samples[metricExitDecisions+`{model="demo",decision="offload"}`]; got != 2 {
		t.Fatalf("offload decisions = %v, want 2 (old clients must still count)", got)
	}
	for _, series := range []string{
		metricExitDecisions + `{model="demo",decision="local"}`,
		metricExitReported + `{model="demo"}`,
		metricAgree + `{model="demo",agree="yes"}`,
		metricAgree + `{model="demo",agree="no"}`,
		metricExitEntropy + `_count{model="demo"}`,
	} {
		got, ok := samples[series]
		if !ok {
			t.Fatalf("series %s must exist (at zero) for telemetry-less traffic", series)
		}
		if got != 0 {
			t.Fatalf("%s = %v, want 0", series, got)
		}
	}
	if got := samples[metricInferRequests+`{model="demo"}`]; got != 2 {
		t.Fatalf("infer requests = %v, want 2", got)
	}
}

// TestRequestJournal pins the /v1/debug/requests contract: bounded,
// newest first, carrying the propagated ID and inference detail, and
// skipping observability self-traffic.
func TestRequestJournal(t *testing.T) {
	s := newServer(t, WithJournal(4))
	m := testModel(t)
	if _, err := s.Register("demo", m); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	g := tensor.NewRNG(33)
	shared := m.ForwardShared(g.Uniform(-1, 1, 1, 1, 28, 28), false)
	tel := &collab.Telemetry{Entropy: 0.5, Tau: 0.25, BinaryPred: 4, LocalExits: 1}
	frame := telemetryFrame(t, shared, tel)

	req, _ := http.NewRequest("POST", srv.URL+"/v1/infer/demo", bytes.NewReader(frame))
	req.Header.Set(collab.RequestIDHeader, "journal-probe")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(collab.RequestIDHeader); got != "journal-probe" {
		t.Fatalf("request ID not echoed: %q", got)
	}

	// Scrapes must not evict anything.
	if _, err := http.Get(srv.URL + "/metrics"); err != nil {
		t.Fatal(err)
	}
	var entries []JournalEntry
	getJSON(t, srv.URL+"/v1/debug/requests", &entries)
	if len(entries) != 1 {
		t.Fatalf("journal has %d entries, want 1 (scrapes must be skipped): %+v", len(entries), entries)
	}
	e := entries[0]
	if e.ID != "journal-probe" || e.Method != "POST" || e.Path != "/v1/infer/demo" ||
		e.Status != 200 || e.Model != "demo" || e.Codec != "raw" || e.Samples != 1 {
		t.Fatalf("journal entry wrong: %+v", e)
	}
	if e.Pred == nil || e.Entropy == nil || *e.Entropy != 0.5 ||
		e.BinaryPred == nil || *e.BinaryPred != 4 || e.Agree == nil {
		t.Fatalf("journal entry missing inference detail: %+v", e)
	}

	// Health and SLO probes are self-traffic too: a load balancer hitting
	// them every couple of seconds must not evict real requests.
	for _, p := range []string{"/v1/healthz", "/v1/health", "/v1/slo"} {
		r, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	getJSON(t, srv.URL+"/v1/debug/requests", &entries)
	if len(entries) != 1 {
		t.Fatalf("journal has %d entries, want 1 (probes must be skipped): %+v", len(entries), entries)
	}

	// Overflow: the ring keeps only the newest 4, newest first.
	for i := 0; i < 6; i++ {
		r, err := http.Get(srv.URL + fmt.Sprintf("/v1/models?i=%d", i))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	getJSON(t, srv.URL+"/v1/debug/requests", &entries)
	if len(entries) != 4 {
		t.Fatalf("bounded journal has %d entries, want 4", len(entries))
	}
	for _, e := range entries {
		if e.Path != "/v1/models" {
			t.Fatalf("oldest entries must be evicted, found %+v", e)
		}
	}
	if entries[0].Time.Before(entries[len(entries)-1].Time) {
		t.Fatal("journal must be newest first")
	}

	// A journal-less server still serves the endpoint.
	s2 := newServer(t, WithJournal(-1))
	srv2 := httptest.NewServer(s2.Handler())
	defer srv2.Close()
	getJSON(t, srv2.URL+"/v1/debug/requests", &entries)
	if len(entries) != 0 {
		t.Fatalf("disabled journal returned %+v", entries)
	}
}
