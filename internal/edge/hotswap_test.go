package edge

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcrs/internal/collab"
	"lcrs/internal/exitpolicy"
	"lcrs/internal/modelio"
	"lcrs/internal/models"
	"lcrs/internal/tensor"
)

// Versioned-registry and hot-swap coverage (DESIGN.md §15). The load
// test here is the CI race job's TestHotSwap target: concurrent clients
// across repeated Activate calls, with every response's probability
// vector checked BITWISE against the version it claims served it — the
// strongest possible statement that no request was computed by a
// mixed-version batch or the wrong weights. (float32 values survive a
// JSON round trip exactly: encoding/json emits the shortest string that
// re-parses to the same float32.)

// altModel builds a model with the same architecture as testModel but
// different weights — a "retrain" to hot-swap to.
func altModel(t testing.TB) *models.Composite {
	t.Helper()
	m, err := models.Build("lenet", models.Config{
		Classes: 10, InC: 1, InH: 28, InW: 28, WidthScale: 0.08, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// probsBits flattens a probability vector to its exact bit pattern.
func probsBits(probs []float32) string {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, probs)
	return buf.String()
}

// expectedProbs computes the reference softmax for one intermediate under
// one model, through the same ForwardMainRest path the server uses
// (bitwise-deterministic across replicas and batch coalescing — pinned by
// TestBatchedBitwiseIdenticalToUnbatched).
func expectedProbs(m *models.Composite, shared *tensor.Tensor) []float32 {
	logits := m.ForwardMainRest(shared, false)
	probs := make([]float32, logits.Dim(1))
	tensor.SoftmaxRow(probs, logits.Row(0))
	return probs
}

// TestHotSwapUnderLoad is the zero-downtime contract: 64 clients hammer
// /v1/infer through the micro-batcher while the model is activated back
// and forth between two versions. Every request must succeed, echo a real
// version, and carry probabilities bitwise-equal to what that version's
// weights produce for its frame.
func TestHotSwapUnderLoad(t *testing.T) {
	m1, m2 := testModel(t), altModel(t)
	s := newServer(t, WithBatching(8, 500*time.Microsecond))
	defer s.Close()
	v1, err := s.Register("demo", m1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.RegisterVersion("demo", m2)
	if err != nil {
		t.Fatal(err)
	}
	if v1 == v2 {
		t.Fatalf("different weights share version %s", v1)
	}

	const nFrames = 4
	frames := make([][]byte, nFrames)
	// expect[version][frame] is the exact bit pattern each version must
	// produce for each frame.
	expect := map[string][]string{v1: make([]string, nFrames), v2: make([]string, nFrames)}
	g := tensor.NewRNG(11)
	for i := 0; i < nFrames; i++ {
		shared := m1.ForwardShared(g.Uniform(-1, 1, 1, 1, 28, 28), false)
		var buf bytes.Buffer
		if err := collab.WriteTensorCodec(&buf, shared, collab.Raw); err != nil {
			t.Fatal(err)
		}
		frames[i] = buf.Bytes()
		// Decode a fresh intermediate per model so neither forward pass can
		// see the other's buffers.
		for v, m := range map[string]*models.Composite{v1: m1, v2: m2} {
			in, _, err := collab.ReadFrame(bytes.NewReader(frames[i]))
			if err != nil {
				t.Fatal(err)
			}
			expect[v][i] = probsBits(expectedProbs(m, in))
		}
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const (
		workers  = 64
		requests = 20
	)
	var (
		wg       sync.WaitGroup
		served   [2]atomic.Int64 // requests served by v1, v2
		failures atomic.Int64
	)
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				fi := (w + i) % nFrames
				resp, err := http.Post(srv.URL+"/v1/infer/demo", "application/octet-stream",
					bytes.NewReader(frames[fi]))
				if err != nil {
					fail("worker %d: %v", w, err)
					return
				}
				var ir collab.InferResponse
				decErr := json.NewDecoder(resp.Body).Decode(&ir)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil {
					fail("worker %d: status %s, decode %v", w, resp.Status, decErr)
					return
				}
				want, known := expect[ir.Version]
				if !known {
					fail("worker %d: response claims unknown version %q", w, ir.Version)
					return
				}
				if hdr := resp.Header.Get(collab.ModelVersionHeader); hdr != ir.Version {
					fail("worker %d: header version %q != body version %q", w, hdr, ir.Version)
					return
				}
				// The bitwise core: the answer must be exactly what the
				// version that claims to have served it computes. A batch
				// that mixed versions, or a swap that leaked weights across
				// entries, breaks this for some request.
				if got := probsBits(ir.Probs); got != want[fi] {
					fail("worker %d frame %d: probs are not version %s's output", w, fi, ir.Version)
					return
				}
				if ir.Version == v1 {
					served[0].Add(1)
				} else {
					served[1].Add(1)
				}
			}
		}(w)
	}

	// Swap under load: v1 → v2 → v1 (rollback) → v2. Each Activate builds
	// the incoming entry fully before the pointer moves, so no request ever
	// waits on a warm-up or fails.
	for _, v := range []string{v2, v1, v2} {
		time.Sleep(5 * time.Millisecond)
		if err := s.Activate("demo", v); err != nil {
			t.Fatalf("Activate(%s) under load: %v", v, err)
		}
	}
	wg.Wait()

	if n := failures.Load(); n > 0 {
		t.Fatalf("%d failed requests during hot-swap (want zero)", n)
	}
	if got := served[0].Load() + served[1].Load(); got != workers*requests {
		t.Fatalf("served %d of %d requests", got, workers*requests)
	}
	// The final activation must have won: the next request serves v2.
	ir := postInfer(t, srv.URL+"/v1/infer/demo", frames[0])
	if ir.Version != v2 {
		t.Fatalf("after final Activate: serving %s, want %s", ir.Version, v2)
	}
	if got := s.Models()[0].Version; got != v2 {
		t.Fatalf("listed active version %s, want %s", got, v2)
	}
	t.Logf("served: v1=%d v2=%d", served[0].Load(), served[1].Load())
}

// Staging is invisible to traffic: a version registered with
// RegisterVersion is listed but not served until Activate, and activating
// an unknown version or model fails cleanly.
func TestHotSwapStagingAndActivation(t *testing.T) {
	s := newServer(t)
	defer s.Close()
	m := testModel(t)
	v, err := s.RegisterVersion("demo", m)
	if err != nil {
		t.Fatal(err)
	}
	// Idempotent: same weights, same version.
	v2, err := s.RegisterVersion("demo", m)
	if err != nil || v2 != v {
		t.Fatalf("re-staging same weights: %s vs %s (%v)", v2, v, err)
	}
	infos := s.Models()
	if len(infos) != 1 || infos[0].Version != "" || len(infos[0].Versions) != 1 || infos[0].Versions[0] != v {
		t.Fatalf("staged listing wrong: %+v", infos)
	}
	if len(s.Stats()) != 0 {
		t.Fatal("staged-only model must not appear in Stats")
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/bundle/demo")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("staged bundle served: %s", resp.Status)
	}

	if err := s.Activate("demo", "no-such-version"); err == nil {
		t.Fatal("Activate accepted unknown version")
	}
	if err := s.Activate("ghost", v); err == nil {
		t.Fatal("Activate accepted unknown model")
	}
	if err := s.Activate("demo", v); err != nil {
		t.Fatal(err)
	}
	if got := s.Models()[0].Version; got != v {
		t.Fatalf("listed active version %q, want %q", got, v)
	}
	ir := postInfer(t, srv.URL+"/v1/infer/demo", inferFrame(t, m, 5))
	if ir.Version != v {
		t.Fatalf("infer version %q, want %q", ir.Version, v)
	}
}

// A hot-swap drains the replaced version's answer cache: the purge shows
// up as evictions, and the new version starts cold (no answer computed by
// the old weights can ever be served again, even after a rollback).
func TestHotSwapPurgesAnswerCache(t *testing.T) {
	s := newServer(t, WithAnswerCache(64))
	defer s.Close()
	m1, m2 := testModel(t), altModel(t)
	if _, err := s.Register("demo", m1); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	frame := inferFrame(t, m1, 9)
	postInfer(t, srv.URL+"/v1/infer/demo", frame) // miss, fills cache
	postInfer(t, srv.URL+"/v1/infer/demo", frame) // hit
	st := s.Stats()[0]
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.CacheEvictions != 0 {
		t.Fatalf("cache warm-up counters: %+v", st)
	}

	if _, err := s.Register("demo", m2); err != nil { // stage+activate = hot-swap
		t.Fatal(err)
	}
	st = s.Stats()[0]
	if st.CacheEvictions != 1 {
		t.Fatalf("swap must purge the old cache (1 eviction), got %d", st.CacheEvictions)
	}
	// Same frame again: the fresh cache must miss and recompute under the
	// new weights.
	ir := postInfer(t, srv.URL+"/v1/infer/demo", frame)
	st = s.Stats()[0]
	if st.CacheMisses != 2 {
		t.Fatalf("post-swap request must miss the fresh cache: %+v", st)
	}
	shared, _, err := collab.ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if probsBits(ir.Probs) != probsBits(expectedProbs(m2, shared)) {
		t.Fatal("post-swap answer was not computed by the new weights")
	}
}

// The lcrs_model_version / lcrs_model_activations_total families track
// deploys: active version at 1, replaced version at 0, one activation
// counted per swap.
func TestHotSwapMetrics(t *testing.T) {
	s := newServer(t)
	defer s.Close()
	m1, m2 := testModel(t), altModel(t)
	v1, err := s.Register("demo", m1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Register("demo", m2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp := buf.String()
	for _, want := range []string{
		fmt.Sprintf(`lcrs_model_version{model="demo",version="%s"} 0`, v1),
		fmt.Sprintf(`lcrs_model_version{model="demo",version="%s"} 1`, v2),
		`lcrs_model_activations_total{model="demo"} 2`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q:\n%s", want, exp)
		}
	}
}

// RegisterPack hosts a deploy artifact end to end: the packed bundle is
// served byte-for-byte, the raw pack is re-served at /v1/pack, the
// version is the pack's content address, and — with a tau controller —
// the manifest's screened tau seeds the controller, so the very first
// infer response pushes it.
func TestRegisterPackServesArtifact(t *testing.T) {
	m := testModel(t)
	man := modelio.PackManifest{
		Arch: "lenet",
		Config: models.Config{
			Classes: 10, InC: 1, InH: 28, InW: 28, WidthScale: 0.08, Seed: 1,
		},
		Tau:   0.6875,
		Codec: "q8",
		Label: "hotswap-test",
	}
	data, err := modelio.EncodePack(man, m)
	if err != nil {
		t.Fatal(err)
	}
	p, err := modelio.OpenPack(data)
	if err != nil {
		t.Fatal(err)
	}

	s := newServer(t, WithTauControl(exitpolicy.Config{
		Mode:           exitpolicy.ModeExitRate,
		Target:         0.5,
		Band:           0.05,
		Gain:           1,
		MaxStep:        0.08,
		Window:         4,
		AdoptClientTau: true,
	}))
	defer s.Close()
	v, err := s.RegisterPack("demo", p)
	if err != nil {
		t.Fatal(err)
	}
	if v != p.Version() {
		t.Fatalf("registered version %s, pack version %s", v, p.Version())
	}
	if err := s.Activate("demo", v); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/pack/demo")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, data) {
		t.Fatalf("pack endpoint: status %s, %d bytes (want %d, byte-identical)",
			resp.Status, len(got), len(data))
	}
	if etag := resp.Header.Get("ETag"); etag != `"`+v+`"` {
		t.Fatalf("pack ETag %q, want quoted version %q", etag, v)
	}
	bresp, err := http.Get(srv.URL + "/v1/bundle/demo")
	if err != nil {
		t.Fatal(err)
	}
	bundle, _ := io.ReadAll(bresp.Body)
	bresp.Body.Close()
	if !bytes.Equal(bundle, p.Bundle) {
		t.Fatal("served bundle differs from the packed one")
	}

	// Manifest tau seeded the controller: a v1 frame (no telemetry) still
	// gets the threshold pushed.
	ir := postInfer(t, srv.URL+"/v1/infer/demo", inferFrame(t, m, 3))
	if ir.Tau == nil || *ir.Tau != man.Tau {
		t.Fatalf("pack tau not seeded: got %v, want %v", ir.Tau, man.Tau)
	}
	if ir.Version != v {
		t.Fatalf("infer version %q, want %q", ir.Version, v)
	}

	// An in-process registration has no artifact to serve.
	if _, err := s.Register("plain", altModel(t)); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/v1/pack/plain")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("in-process model served a pack: %s", resp.Status)
	}
}

// Bundle revalidation and partial fetches: If-None-Match with the current
// ETag is a bodyless 304; a stale ETag (after a swap) re-downloads; Range
// requests resume mid-artifact with 206.
func TestBundleETagAndRange(t *testing.T) {
	s := newServer(t)
	defer s.Close()
	m1, m2 := testModel(t), altModel(t)
	if _, err := s.Register("demo", m1); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/bundle/demo")
	if err != nil {
		t.Fatal(err)
	}
	full, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" || len(full) == 0 {
		t.Fatalf("bundle GET: etag %q, %d bytes", etag, len(full))
	}

	// Revalidation of the unchanged bundle: 304, ZERO body bytes.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/bundle/demo", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("revalidation: status %s with %d body bytes (want 304, 0)", resp.Status, len(body))
	}

	// Range: resume a partial download.
	req, _ = http.NewRequest(http.MethodGet, srv.URL+"/v1/bundle/demo", nil)
	req.Header.Set("Range", "bytes=100-199")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	part, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(part, full[100:200]) {
		t.Fatalf("range: status %s, %d bytes", resp.Status, len(part))
	}

	// Hot-swap, then revalidate with the stale ETag: full re-download of
	// the new version.
	if _, err := s.Register("demo", m2); err != nil {
		t.Fatal(err)
	}
	req, _ = http.NewRequest(http.MethodGet, srv.URL+"/v1/bundle/demo", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(fresh) == 0 {
		t.Fatalf("stale revalidation: status %s, %d bytes", resp.Status, len(fresh))
	}
	if resp.Header.Get("ETag") == etag {
		t.Fatal("swap did not change the bundle ETag")
	}
	if bytes.Equal(fresh, full) {
		t.Fatal("swap served the old bundle bytes")
	}
}

// A request that pins a version (X-LCRS-Model-Version) is rejected with
// 409 once the edge moves past it — never silently served by different
// weights than the client's binary branch came from.
func TestInferVersionPin(t *testing.T) {
	s := newServer(t)
	defer s.Close()
	m1, m2 := testModel(t), altModel(t)
	v1, err := s.Register("demo", m1)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	frame := inferFrame(t, m1, 4)

	post := func(pin string) *http.Response {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/infer/demo", bytes.NewReader(frame))
		req.Header.Set("Content-Type", "application/octet-stream")
		if pin != "" {
			req.Header.Set(collab.ModelVersionHeader, pin)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post(v1) // matching pin serves
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matching pin rejected: %s", resp.Status)
	}
	if _, err := s.Register("demo", m2); err != nil {
		t.Fatal(err)
	}
	resp = post(v1) // stale pin rejected, current version advertised
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale pin: %s, want 409", resp.Status)
	}
	if got := resp.Header.Get(collab.ModelVersionHeader); got == v1 || got == "" {
		t.Fatalf("409 must advertise the new version, got %q", got)
	}
	resp = post("") // unpinned requests ride through the swap
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unpinned request rejected: %s", resp.Status)
	}
}
