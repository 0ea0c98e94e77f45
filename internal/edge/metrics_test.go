package edge

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"lcrs/internal/collab"
	"lcrs/internal/tensor"
)

// seriesLine matches one exposition sample: name, optional label block,
// value. The exposition format allows an optional timestamp; this server
// never emits one, and the test is a golden check on *our* output.
var seriesLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.]+(?:[eE][-+]?[0-9]+)?|\+Inf|NaN)$`)

// validateExposition checks that body is well-formed Prometheus text
// format 0.0.4 as this server emits it: HELP/TYPE comments naming valid
// identifiers, every sample line parseable, histogram buckets cumulative
// and ending in an le="+Inf" bucket equal to the _count. It returns the
// parsed samples keyed by full series name (name + label block).
func validateExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	typed := map[string]string{}
	for i, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case line == "":
			t.Fatalf("line %d: empty line in exposition", i+1)
		case strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE "):
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 || !seriesLine.MatchString(fields[2]+" 0") {
				t.Fatalf("line %d: malformed comment %q", i+1, line)
			}
			if fields[1] == "TYPE" {
				if fields[3] != "counter" && fields[3] != "histogram" && fields[3] != "gauge" {
					t.Fatalf("line %d: unknown metric type %q", i+1, fields[3])
				}
				typed[fields[2]] = fields[3]
			}
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment %q", i+1, line)
		default:
			m := seriesLine.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed sample %q", i+1, line)
			}
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				t.Fatalf("line %d: bad value in %q: %v", i+1, line, err)
			}
			samples[m[1]+m[2]] = v
		}
	}
	if len(typed) == 0 {
		t.Fatal("exposition has no TYPE comments")
	}
	// Histogram invariants: buckets cumulative (non-decreasing in le
	// order, which is the emission order within a series) and the +Inf
	// bucket equal to _count.
	for series, v := range samples {
		if !strings.Contains(series, `le="+Inf"`) {
			continue
		}
		base := strings.SplitN(series, "{", 2)
		name := strings.TrimSuffix(base[0], "_bucket")
		labels := strings.Replace("{"+base[1], `le="+Inf"`, "", 1)
		labels = strings.TrimSuffix(strings.TrimSuffix(labels, "}"), ",") + "}"
		if labels == "{}" {
			labels = ""
		}
		count, ok := samples[name+"_count"+labels]
		if !ok {
			t.Fatalf("series %s has no matching _count", series)
		}
		if v != count {
			t.Fatalf("series %s = %v, _count = %v; +Inf bucket must equal count", series, v, count)
		}
	}
	return samples
}

// scrape fetches and validates /metrics, returning the parsed samples.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return validateExposition(t, string(body))
}

// TestMetricsExposition is the golden-format test of the tentpole: drive
// mixed traffic, scrape /metrics, and require (a) a well-formed
// exposition with stable names, (b) per-model per-stage histograms whose
// counts reconcile with each other and with the /v1/stats JSON.
func TestMetricsExposition(t *testing.T) {
	s := newServer(t)
	m := testModel(t)
	if _, err := s.Register("demo", m); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Traffic: one bundle download, three good inferences, two bad.
	resp, err := http.Get(srv.URL + "/v1/bundle/demo")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	g := tensor.NewRNG(21)
	var payload int64
	for i := 0; i < 3; i++ {
		shared := m.ForwardShared(g.Uniform(-1, 1, 1, 1, 28, 28), false)
		var buf bytes.Buffer
		if err := collab.WriteTensorCodec(&buf, shared, collab.Raw); err != nil {
			t.Fatal(err)
		}
		payload += int64(buf.Len())
		ir := postInfer(t, srv.URL+"/v1/infer/demo", buf.Bytes())
		if ir.Stages == nil {
			t.Fatal("InferResponse.Stages missing")
		}
		if ir.Stages.Forward <= 0 {
			t.Fatalf("echoed forward stage = %d, want > 0", ir.Stages.Forward)
		}
		if ir.Stages.BatchWait != 0 {
			t.Fatalf("batch_wait = %d on an unbatched server", ir.Stages.BatchWait)
		}
	}
	var bad bytes.Buffer
	if err := collab.WriteTensorCodec(&bad, g.Uniform(0, 1, 2, 2), collab.Raw); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		resp, err := http.Post(srv.URL+"/v1/infer/demo", "application/octet-stream",
			bytes.NewReader(bad.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		// A wrong-shape frame decodes fine before being rejected, so its
		// bytes still count as payload received.
		payload += int64(bad.Len())
	}

	samples := scrape(t, srv.URL)

	// Stable series names: the contract the dashboards depend on.
	model := `{model="demo"}`
	for series, want := range map[string]float64{
		metricInferRequests + model:   5,
		metricInferErrors + model:     2,
		metricBundleDownloads + model: 1,
		metricPayloadBytes + model:    float64(payload),
	} {
		got, ok := samples[series]
		if !ok {
			t.Fatalf("exposition missing series %s", series)
		}
		if got != want {
			t.Fatalf("%s = %v, want %v", series, got, want)
		}
	}

	// Served frames are attributed to their wire codec: the three good
	// requests were raw v1 frames, and the precreated series for other
	// codecs sit at zero rather than being absent.
	if got := samples[metricCodecRequests+`{model="demo",codec="raw"}`]; got != 3 {
		t.Fatalf("raw codec counter = %v, want 3", got)
	}
	if got, ok := samples[metricCodecRequests+`{model="demo",codec="f16"}`]; !ok || got != 0 {
		t.Fatalf("f16 codec counter = %v (present %v), want 0", got, ok)
	}

	// Every stage histogram observed exactly the successful requests —
	// error paths skip the trace, so stage count = requests - errors.
	for _, stage := range stageNames {
		series := fmt.Sprintf(`%s_count{model="demo",stage="%s"}`, metricStageSeconds, stage)
		got, ok := samples[series]
		if !ok {
			t.Fatalf("exposition missing stage series %s", series)
		}
		if got != 3 {
			t.Fatalf("%s = %v, want 3", series, got)
		}
	}

	// The same atomics feed /v1/stats, so the two views must agree.
	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats []ModelStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := stats[0]
	if float64(st.InferRequests) != samples[metricInferRequests+model] ||
		float64(st.InferErrors) != samples[metricInferErrors+model] ||
		float64(st.BundleDownloads) != samples[metricBundleDownloads+model] ||
		float64(st.PayloadBytes) != samples[metricPayloadBytes+model] {
		t.Fatalf("/v1/stats %+v does not reconcile with /metrics %v", st, samples)
	}

	// A second scrape of the now-idle server is byte-stable (exercised on
	// the full exposition; obs has the unit version of this test).
	resp1, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := io.ReadAll(resp1.Body)
	resp1.Body.Close()
	resp2, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !bytes.Equal(b1, b2) {
		t.Fatal("idle scrapes must be byte-identical")
	}
}

// Batched traffic must flow into the batch-size histogram and the
// batch_wait stage, and the batch counters must reconcile between the two
// observability surfaces.
func TestMetricsBatchedPath(t *testing.T) {
	s := newServer(t, WithBatching(4, DefaultBatchWait))
	m := testModel(t)
	if _, err := s.Register("demo", m); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	g := tensor.NewRNG(22)
	shared := m.ForwardShared(g.Uniform(-1, 1, 1, 1, 28, 28), false)
	var buf bytes.Buffer
	if err := collab.WriteTensorCodec(&buf, shared, collab.Raw); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ir := postInfer(t, srv.URL+"/v1/infer/demo", buf.Bytes())
		if ir.Stages == nil || ir.Stages.BatchWait <= 0 {
			t.Fatalf("batched request must report batch_wait, got %+v", ir.Stages)
		}
	}

	samples := scrape(t, srv.URL)
	model := `{model="demo"}`
	if got := samples[metricBatchedRequests+model]; got != 3 {
		t.Fatalf("batched requests = %v, want 3", got)
	}
	batches := samples[metricBatches+model]
	if batches == 0 {
		t.Fatal("no batches counted")
	}
	if got := samples[metricBatchSize+"_count"+model]; got != batches {
		t.Fatalf("batch size histogram count %v != batches counter %v", got, batches)
	}
	st := s.Stats()[0]
	if float64(st.Batches) != batches || st.BatchedRequests != 3 {
		t.Fatalf("/v1/stats %+v does not reconcile with /metrics", st)
	}
	var hist int64
	for _, b := range st.BatchSizeHist {
		hist += b.Count
	}
	if float64(hist) != batches {
		t.Fatalf("JSON batch histogram counts %d, /metrics says %v", hist, batches)
	}
}
