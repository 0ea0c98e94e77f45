package webclient

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"lcrs/internal/dataset"
	"lcrs/internal/edge"
	"lcrs/internal/models"
	"lcrs/internal/tensor"
)

// Bundle revalidation across edge hot-swaps (DESIGN.md §15): the
// conditional GET must cost zero body bytes when nothing changed, a swap
// must be detected and installed in place, the session cache must not
// survive the old version, and a pinned client must surface the swap as
// ErrVersionConflict instead of a silently cross-version answer.

// countingTransport records, per response, the status and the number of
// body bytes the server actually sent — measured at the transport, before
// the client decides whether to read, by draining the body into memory.
type countingTransport struct {
	base      http.RoundTripper
	statuses  []int
	bodyBytes []int
}

func (ct *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := ct.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	ct.statuses = append(ct.statuses, resp.StatusCode)
	ct.bodyBytes = append(ct.bodyBytes, len(data))
	return resp, nil
}

func (ct *countingTransport) last() (status, n int) {
	i := len(ct.statuses) - 1
	return ct.statuses[i], ct.bodyBytes[i]
}

// newSwapRig serves an untrained model (weights don't matter here — only
// versions do) with a second "retrain" staged for hot-swapping, and a
// loaded client whose traffic is byte-counted.
func newSwapRig(t *testing.T, tau float64, opts ...Option) (c *Client, ct *countingTransport, s *edge.Server, m2 *models.Composite, done func()) {
	t.Helper()
	cfg := models.Config{Classes: 10, InC: 1, InH: 28, InW: 28, WidthScale: 0.08, Seed: 1}
	m1, err := models.Build("lenet", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Seed = 2
	m2, err = models.Build("lenet", cfg2)
	if err != nil {
		t.Fatal(err)
	}
	s, err = edge.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("demo", m1); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	ct = &countingTransport{base: srv.Client().Transport}
	c, err = New(srv.URL, append([]Option{WithHTTPClient(&http.Client{Transport: ct})}, opts...)...)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	if err := c.LoadModel(context.Background(), "demo", "lenet", cfg, tau); err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return c, ct, s, m2, srv.Close
}

func sampleFrame(t *testing.T) *tensor.Tensor {
	t.Helper()
	ds, err := dataset.GenerateByName("mnist", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := ds.Sample(0)
	return x
}

// The acceptance criterion: revalidating an unchanged bundle is a 304
// that transfers ZERO body bytes; after a hot-swap the same call detects
// the change and installs the new version.
func TestRevalidateBundleZeroBytesWhenUnchanged(t *testing.T) {
	c, ct, s, m2, done := newSwapRig(t, 0.5)
	defer done()
	defer s.Close()
	ctx := context.Background()

	v1 := c.ModelVersion()
	if v1 == "" {
		t.Fatal("LoadModel did not capture the bundle version")
	}
	_, loadBytes := c.LoadStats()

	changed, err := c.RevalidateBundle(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("unchanged bundle reported as changed")
	}
	status, n := ct.last()
	if status != http.StatusNotModified || n != 0 {
		t.Fatalf("revalidation cost status %d with %d body bytes, want 304 with 0", status, n)
	}
	if c.ModelVersion() != v1 {
		t.Fatal("304 must not touch the installed version")
	}

	// Hot-swap on the edge, revalidate again: full re-download of the new
	// version, installed in place.
	if _, err := s.Register("demo", m2); err != nil {
		t.Fatal(err)
	}
	changed, err = c.RevalidateBundle(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("hot-swap not detected")
	}
	status, n = ct.last()
	if status != http.StatusOK || n == 0 {
		t.Fatalf("changed bundle: status %d, %d bytes", status, n)
	}
	v2 := c.ModelVersion()
	if v2 == "" || v2 == v1 {
		t.Fatalf("version after swap: %q (was %q)", v2, v1)
	}
	if _, nowBytes := c.LoadStats(); nowBytes != n {
		t.Fatalf("LoadStats bytes %d, transport saw %d", nowBytes, n)
	}
	if n != loadBytes {
		t.Fatalf("re-download %d bytes, original bundle %d", n, loadBytes)
	}

	// And the new state revalidates cleanly again.
	if changed, err = c.RevalidateBundle(ctx); err != nil || changed {
		t.Fatalf("fresh bundle revalidation: changed=%v err=%v", changed, err)
	}
	if status, n = ct.last(); status != http.StatusNotModified || n != 0 {
		t.Fatalf("fresh revalidation: status %d, %d bytes", status, n)
	}
}

// An unpinned client keeps working through a swap but is told about it:
// the offload answer carries the serving version and BundleStale flips
// until the bundle is revalidated.
func TestRecognizeReportsBundleStale(t *testing.T) {
	c, _, s, m2, done := newSwapRig(t, 0) // tau=0: always offload
	defer done()
	defer s.Close()
	ctx := context.Background()
	sample := sampleFrame(t)

	res, err := c.Recognize(ctx, sample)
	if err != nil {
		t.Fatal(err)
	}
	if res.BundleStale || res.ModelVersion != c.ModelVersion() {
		t.Fatalf("fresh bundle: stale=%v version=%q", res.BundleStale, res.ModelVersion)
	}

	if _, err := s.Register("demo", m2); err != nil {
		t.Fatal(err)
	}
	res, err = c.Recognize(ctx, sample)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BundleStale {
		t.Fatal("swap not reported via BundleStale")
	}
	if res.ModelVersion == c.ModelVersion() {
		t.Fatal("stale result must carry the NEW serving version")
	}

	if changed, err := c.RevalidateBundle(ctx); err != nil || !changed {
		t.Fatalf("revalidate after stale result: changed=%v err=%v", changed, err)
	}
	res, err = c.Recognize(ctx, sample)
	if err != nil {
		t.Fatal(err)
	}
	if res.BundleStale || res.ModelVersion != c.ModelVersion() {
		t.Fatalf("after revalidation: stale=%v version=%q vs %q",
			res.BundleStale, res.ModelVersion, c.ModelVersion())
	}
}

// A pinned client refuses cross-version answers outright: the 409 becomes
// ErrVersionConflict even when fallback and a primed session cache could
// have papered over it, and RevalidateBundle is the documented recovery.
func TestVersionPinConflictSurfaced(t *testing.T) {
	// RevalidateEvery(1) forces every cached frame through to a real
	// offload, so the cache holds an answer for the frame yet cannot
	// short-circuit the request — the edge's 409 is actually provoked.
	c, _, s, m2, done := newSwapRig(t, 0,
		WithVersionPin(true), WithSessionCache(8), WithRevalidateEvery(1))
	defer done()
	defer s.Close()
	c.FallbackToBinary = true
	ctx := context.Background()
	sample := sampleFrame(t)

	if _, err := c.Recognize(ctx, sample); err != nil {
		t.Fatalf("matching pin must serve: %v", err)
	}
	if _, err := s.Register("demo", m2); err != nil {
		t.Fatal(err)
	}
	// The same frame now has a cached answer AND fallback enabled — the
	// conflict must still surface, not degrade.
	_, err := c.Recognize(ctx, sample)
	if !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("stale pin: got %v, want ErrVersionConflict", err)
	}
	if changed, rvErr := c.RevalidateBundle(ctx); rvErr != nil || !changed {
		t.Fatalf("recovery revalidation: changed=%v err=%v", changed, rvErr)
	}
	res, err := c.Recognize(ctx, sample)
	if err != nil {
		t.Fatalf("after revalidation the pin matches again: %v", err)
	}
	if res.Degraded || res.CacheHit {
		t.Fatalf("post-recovery answer must be a real offload: %+v", res)
	}
}

// Installing a new version drops the session cache: its answers were
// computed by the replaced weights.
func TestRevalidateClearsSessionCache(t *testing.T) {
	c, _, s, m2, done := newSwapRig(t, 0, WithSessionCache(8))
	defer done()
	defer s.Close()
	ctx := context.Background()
	sample := sampleFrame(t)

	if _, err := c.Recognize(ctx, sample); err != nil { // fills cache
		t.Fatal(err)
	}
	res, err := c.Recognize(ctx, sample)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("identical frame must hit the session cache")
	}
	if c.cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.cache.Len())
	}

	if _, err := s.Register("demo", m2); err != nil {
		t.Fatal(err)
	}
	if changed, err := c.RevalidateBundle(ctx); err != nil || !changed {
		t.Fatalf("revalidate: changed=%v err=%v", changed, err)
	}
	if c.cache.Len() != 0 {
		t.Fatalf("cache survived the swap with %d entries", c.cache.Len())
	}
	res, err = c.Recognize(ctx, sample)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("post-swap recognition served a purged answer")
	}
	if res.ModelVersion != c.ModelVersion() {
		t.Fatalf("post-swap offload served %q, bundle is %q", res.ModelVersion, c.ModelVersion())
	}
}

// A pinned batch surfaces a hot-swap exactly like a pinned Recognize: the
// 409 is ErrVersionConflict even with fallback on, and no degraded answers
// come back.
func TestRecognizeBatchVersionPinConflict(t *testing.T) {
	c, _, s, m2, done := newSwapRig(t, 0, WithVersionPin(true))
	defer done()
	defer s.Close()
	c.FallbackToBinary = true
	if _, err := s.Register("demo", m2); err != nil {
		t.Fatal(err)
	}
	xs := tensor.NewRNG(7).Uniform(0, 1, 3, 1, 28, 28)
	results, err := c.RecognizeBatch(context.Background(), xs)
	if !errors.Is(err, ErrVersionConflict) || results != nil {
		t.Fatalf("stale pin: got %v and %d results, want ErrVersionConflict and none", err, len(results))
	}
}

// Batched offloads report what Recognize reports: the serving version, the
// trace ID and, after a hot-swap, BundleStale.
func TestRecognizeBatchReportsBundleStale(t *testing.T) {
	c, _, s, m2, done := newSwapRig(t, 0) // tau=0: always offload
	defer done()
	defer s.Close()
	ctx := context.Background()
	rng := tensor.NewRNG(7)

	results, err := c.RecognizeBatch(ctx, rng.Uniform(0, 1, 3, 1, 28, 28))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.BundleStale || r.ModelVersion != c.ModelVersion() || r.TraceID == "" {
			t.Fatalf("fresh bundle, sample %d: stale=%v version=%q trace=%q", i, r.BundleStale, r.ModelVersion, r.TraceID)
		}
	}
	if _, err := s.Register("demo", m2); err != nil {
		t.Fatal(err)
	}
	results, err = c.RecognizeBatch(ctx, rng.Uniform(0, 1, 3, 1, 28, 28))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.BundleStale || r.ModelVersion == "" || r.ModelVersion == c.ModelVersion() || r.TraceID == "" {
			t.Fatalf("after the swap, sample %d: stale=%v version=%q (bundle %q) trace=%q",
				i, r.BundleStale, r.ModelVersion, c.ModelVersion(), r.TraceID)
		}
	}
}

// A batch consults the session cache: repeating a batch of distinct frames
// sends no request and answers every sample from the cache.
func TestRecognizeBatchSessionCache(t *testing.T) {
	c, ct, s, _, done := newSwapRig(t, 0, WithSessionCache(8))
	defer done()
	defer s.Close()
	ctx := context.Background()
	xs := tensor.NewRNG(7).Uniform(0, 1, 3, 1, 28, 28)

	first, err := c.RecognizeBatch(ctx, xs)
	if err != nil {
		t.Fatal(err)
	}
	sent := len(ct.statuses)
	again, err := c.RecognizeBatch(ctx, xs)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ct.statuses) - sent; n != 0 {
		t.Fatalf("repeated batch sent %d requests, want 0", n)
	}
	for i, r := range again {
		if first[i].CacheHit || !r.CacheHit || r.Pred != first[i].Pred {
			t.Fatalf("sample %d: first %+v, repeat %+v", i, first[i], r)
		}
	}
}
