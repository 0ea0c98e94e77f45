package edge

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lcrs/internal/collab"
	"lcrs/internal/tensor"
)

// reconRequest is one entry of the client-side request log the
// reconciliation test checks every server surface against.
type reconRequest struct {
	id      string
	path    string
	frame   []byte
	want    int               // expected status
	samples int               // batch size of a well-formed frame
	codec   string            // codec name of a well-formed frame
	tel     *collab.Telemetry // telemetry block, nil for v1/v2 frames
	// counted reports whether the frame's bytes count as received payload:
	// it decoded in an accepted codec (even if its shape is then rejected).
	counted bool

	// Filled from the response.
	status int
	pred   int
	agree  *bool
}

// TestInferSurfacesReconcile sends a seeded random request mix through
// httptest — raw/f16/q8 frames with and without v3/v4 telemetry, bad
// magic, wrong shapes, a codec the server rejects, an unknown model,
// repeats the answer cache serves, and concurrent waves the batcher
// coalesces — and checks /metrics, /v1/stats, /v1/exitstats,
// /v1/debug/requests and the SLO windows against the client's own log.
func TestInferSurfacesReconcile(t *testing.T) {
	clock := newFakeNow() // frozen: nothing ages out of the SLO windows
	s := newServer(t, WithAnswerCache(16), WithBatching(4, time.Millisecond), WithReplicas(2),
		WithCodecs("f16", "q8"), WithSLO(testSLOConfig()), WithClock(clock.Now))
	m := testModel(t)
	version, err := s.Register("demo", m)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e, _ := s.lookup("demo")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	// Claim every window slot before the concurrent traffic: a slot's first
	// writer zeroes it after claiming, so a racing first observation could
	// be dropped (the bounded skew obs's windows document). Each series
	// gets one priming observation, subtracted below.
	win := s.slo.Target("demo", version)
	win.ObserveInfer(0, false)
	win.ObserveInfer(0, true)
	win.ObserveCache(true)
	win.ObserveCache(false)
	win.ObserveExits(1, 1)
	win.ObserveAgreement(true)
	win.ObserveAgreement(false)

	rng := rand.New(rand.NewSource(29))
	g := tensor.NewRNG(29)
	// A small pool of activations (batches of one and two) so repeats hit
	// the answer cache.
	pool := make([]*tensor.Tensor, 4)
	for i := range pool {
		pool[i] = m.ForwardShared(g.Uniform(-1, 1, 1+i%2, 1, 28, 28), false)
	}
	codecs := []collab.Codec{collab.Raw, collab.F16, collab.Q8}
	q4, err := collab.CodecByName("q4")
	if err != nil {
		t.Fatal(err)
	}

	const n = 96
	reqs := make([]*reconRequest, n)
	for i := range reqs {
		r := &reconRequest{id: fmt.Sprintf("recon-%03d", i), path: "/v1/infer/demo",
			want: http.StatusOK, counted: true}
		var buf bytes.Buffer
		switch rng.Intn(12) {
		case 0:
			buf.WriteString("not a tensor frame")
			r.want, r.counted = http.StatusBadRequest, false
		case 1:
			err = collab.WriteTensor(&buf, g.Uniform(0, 1, 2, 3))
			r.want = http.StatusBadRequest
		case 2:
			err = collab.WriteTensorCodec(&buf, pool[0], q4)
			r.want, r.counted = http.StatusUnsupportedMediaType, false
		case 3:
			err = collab.WriteTensor(&buf, pool[0])
			r.path, r.want, r.counted = "/v1/infer/nope", http.StatusNotFound, false
		default:
			x := pool[rng.Intn(len(pool))]
			c := codecs[rng.Intn(len(codecs))]
			switch rng.Intn(3) {
			case 1:
				r.tel = &collab.Telemetry{Entropy: rng.Float64(), Tau: 0.3,
					BinaryPred: rng.Intn(10), LocalExits: rng.Intn(4)}
			case 2:
				r.tel = &collab.Telemetry{Entropy: rng.Float64(), Tau: 0.3,
					BinaryPred: rng.Intn(10), LocalExits: rng.Intn(4), CacheHits: 1 + rng.Intn(3)}
			}
			err = collab.WriteTensorTelemetry(&buf, x, c, r.tel)
			r.samples, r.codec = x.Dim(0), c.Name()
		}
		if err != nil {
			t.Fatal(err)
		}
		r.frame = buf.Bytes()
		reqs[i] = r
	}

	send := func(r *reconRequest) {
		req, err := http.NewRequest(http.MethodPost, srv.URL+r.path, bytes.NewReader(r.frame))
		if err != nil {
			t.Error(err)
			return
		}
		req.Header.Set(collab.RequestIDHeader, r.id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		r.status = resp.StatusCode
		if r.status != http.StatusOK {
			return
		}
		var ir collab.InferResponse
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Error(err)
			return
		}
		r.pred, r.agree = ir.Pred, ir.BinaryAgree
		if ir.RequestID != r.id || ir.Version != version || len(ir.Preds) != r.samples {
			t.Errorf("%s: response id %q version %q preds %v", r.id, ir.RequestID, ir.Version, ir.Preds)
		}
	}
	// Concurrent waves: identical frames in one wave collapse single-flight,
	// distinct misses coalesce in the batcher.
	const wave = 4
	for lo := 0; lo < n; lo += wave {
		var wg sync.WaitGroup
		for _, r := range reqs[lo:min(lo+wave, n)] {
			wg.Add(1)
			go func(r *reconRequest) {
				defer wg.Done()
				send(r)
			}(r)
		}
		wg.Wait()
	}

	// The request log's totals.
	var requests, failed, ok, payload, samples, reported, agreed, local, clientCache int64
	perCodec := map[string]int64{}
	for _, r := range reqs {
		if r.status != r.want {
			t.Fatalf("%s: status %d, want %d", r.id, r.status, r.want)
		}
		if r.counted {
			payload += int64(len(r.frame))
		}
		if r.path != "/v1/infer/demo" {
			continue
		}
		requests++
		if r.status != http.StatusOK {
			failed++
			continue
		}
		ok++
		samples += int64(r.samples)
		perCodec[r.codec]++
		if r.tel == nil {
			if r.agree != nil {
				t.Errorf("%s: agreement reported without telemetry", r.id)
			}
			continue
		}
		if r.agree == nil || *r.agree != (r.tel.BinaryPred == r.pred) {
			t.Errorf("%s: agreement %v for binary pred %d vs pred %d", r.id, r.agree, r.tel.BinaryPred, r.pred)
		}
		reported++
		if r.tel.BinaryPred == r.pred {
			agreed++
		}
		local += int64(r.tel.LocalExits)
		clientCache += int64(r.tel.CacheHits)
	}
	if failed == 0 || reported == 0 || ok == reported {
		t.Fatalf("the seeded mix must exercise errors and telemetry on and off: %d failed, %d/%d reported", failed, reported, ok)
	}
	expect := func(what string, got, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %d, want %d", what, got, want)
		}
	}

	// /v1/debug/requests first: the GETs below are journaled too.
	var journal []JournalEntry
	getJSON(t, srv.URL+"/v1/debug/requests", &journal)
	byID := map[string]JournalEntry{}
	for _, je := range journal {
		if strings.HasPrefix(je.Path, "/v1/infer/") {
			byID[je.ID] = je
		}
	}
	expect("journaled infer POSTs", int64(len(byID)), n)
	for _, r := range reqs {
		je, found := byID[r.id]
		if !found {
			t.Errorf("%s: not journaled", r.id)
			continue
		}
		if je.Status != r.status || je.Method != http.MethodPost || je.Path != r.path {
			t.Errorf("%s: journal %s %s %d, want POST %s %d", r.id, je.Method, je.Path, je.Status, r.path, r.status)
		}
		if r.status != http.StatusOK {
			continue
		}
		if je.Samples != r.samples || je.Codec != r.codec || je.Version != version ||
			je.Pred == nil || *je.Pred != r.pred || (je.Agree == nil) != (r.tel == nil) {
			t.Errorf("%s: journal entry %+v does not match the response", r.id, je)
		}
	}

	var stats []ModelStats
	getJSON(t, srv.URL+"/v1/stats", &stats)
	if len(stats) != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	st := stats[0]
	expect("infer_requests", st.InferRequests, requests)
	expect("infer_errors", st.InferErrors, failed)
	expect("payload_bytes", st.PayloadBytes, payload)
	expect("cache_hits + cache_misses", st.CacheHits+st.CacheMisses, ok)
	// Every miss computes through the batcher (all batches are below its
	// cap), every batch takes exactly one replica, and hits take none.
	expect("batched_requests", st.BatchedRequests, st.CacheMisses)
	expect("replica checkouts", e.checkouts.Load(), st.Batches)
	var hist int64
	for _, b := range st.BatchSizeHist {
		hist += b.Count
	}
	expect("batch_size_hist", hist, st.Batches)
	if st.CacheHits == 0 || st.Batches == 0 || st.CoalescedRequests > st.BatchedRequests {
		t.Errorf("the mix must both hit the cache and compute: %+v", st)
	}

	var exits []ExitStats
	getJSON(t, srv.URL+"/v1/exitstats", &exits)
	if len(exits) != 1 {
		t.Fatalf("exitstats: %+v", exits)
	}
	ex := exits[0]
	expect("offloaded_samples", ex.OffloadedSamples, samples)
	expect("telemetry_requests", ex.TelemetryRequests, reported)
	expect("agree", ex.Agree, agreed)
	expect("agree + disagree", ex.Agree+ex.Disagree, reported)
	expect("local_exits", ex.LocalExits, local)
	expect("client_cache_hits", ex.ClientCacheHits, clientCache)

	samplesAt := scrape(t, srv.URL)
	metric := func(name string, labels ...string) int64 {
		series := name + `{model="demo"` + strings.Join(append([]string{""}, labels...), ",") + "}"
		v, found := samplesAt[series]
		if !found {
			t.Fatalf("exposition missing %s", series)
		}
		return int64(v)
	}
	expect("/metrics infer requests", metric(metricInferRequests), requests)
	expect("/metrics infer errors", metric(metricInferErrors), failed)
	expect("/metrics payload bytes", metric(metricPayloadBytes), payload)
	expect("/metrics cache hits", metric(metricCacheHits), st.CacheHits)
	expect("/metrics cache misses", metric(metricCacheMisses), st.CacheMisses)
	expect("/metrics batched requests", metric(metricBatchedRequests), st.BatchedRequests)
	expect("/metrics coalesced requests", metric(metricCoalescedReqs), st.CoalescedRequests)
	expect("/metrics batches", metric(metricBatches), st.Batches)
	for _, stage := range stageNames {
		expect("/metrics stage "+stage, metric(metricStageSeconds+"_count", `stage="`+stage+`"`), ok)
	}
	for _, c := range codecs {
		expect("/metrics codec "+c.Name(), metric(metricCodecRequests, `codec="`+c.Name()+`"`), perCodec[c.Name()])
	}
	expect("/metrics offload decisions", metric(metricExitDecisions, `decision="offload"`), samples)
	expect("/metrics local decisions", metric(metricExitDecisions, `decision="local"`), local)
	expect("/metrics reported", metric(metricExitReported), reported)
	expect("/metrics agree", metric(metricAgree, `agree="yes"`), agreed)

	expect("window requests", win.Requests.Total()-2, requests)
	expect("window errors", win.Errors.Total()-1, failed)
	expect("window latencies", win.Latency.Count(win.Latency.Window())-1, ok)
	expect("window cache hits", win.CacheHits.Total()-1, st.CacheHits)
	expect("window cache misses", win.CacheMisses.Total()-1, st.CacheMisses)
	expect("window offloads", win.ExitOffload.Total()-1, samples)
	expect("window local exits", win.ExitLocal.Total()-1, local)
	expect("window agree", win.AgreeYes.Total()-1, agreed)
	expect("window disagree", win.AgreeNo.Total()-1, reported-agreed)
}
