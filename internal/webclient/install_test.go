package webclient

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"lcrs/internal/edge"
	"lcrs/internal/modelio"
	"lcrs/internal/models"
)

// A 200 during RevalidateBundle that is not a whole, valid bundle of the
// architecture's exact length must change nothing: the old model, version,
// ETag and session cache stay in place and the client keeps answering.
// Wrong lengths are refused before a byte is parsed.
func TestRevalidateRefusesBadBundleAndKeepsServing(t *testing.T) {
	cfg := models.Config{Classes: 10, InC: 1, InH: 28, InW: 28, WidthScale: 0.08, Seed: 1}
	m, err := models.Build("lenet", cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := edge.New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Register("demo", m); err != nil {
		t.Fatal(err)
	}
	valid, err := modelio.EncodeBrowserBundle(m)
	if err != nil {
		t.Fatal(err)
	}

	// inject, when set, answers bundle GETs instead of the edge.
	var inject atomic.Pointer[http.HandlerFunc]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := inject.Load(); h != nil && strings.HasPrefix(r.URL.Path, "/v1/bundle/") {
			(*h)(w, r)
			return
		}
		s.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()

	c, err := New(srv.URL, WithSessionCache(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.LoadModel(ctx, "demo", "lenet", cfg, 0); err != nil { // tau=0: always offload
		t.Fatal(err)
	}
	sample := sampleFrame(t)
	first, err := c.Recognize(ctx, sample) // fills the session cache
	if err != nil {
		t.Fatal(err)
	}
	model, version, etag := c.model, c.bundleVersion, c.bundleETag

	body := func(b []byte, declare bool) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("ETag", `"evil"`)
			w.Header().Set("X-LCRS-Model-Version", "evil")
			if declare {
				w.Header().Set("Content-Length", strconv.Itoa(len(b)))
			}
			w.WriteHeader(http.StatusOK)
			// Undeclared bodies go out chunked, in two writes.
			w.Write(b[:len(b)/2])
			if f, ok := w.(http.Flusher); ok && !declare {
				f.Flush()
			}
			w.Write(b[len(b)/2:])
		}
	}
	corrupt := append([]byte(nil), valid...)
	corrupt[12+3] ^= 0x20 // first letter of the first section's name
	oversized := append(append([]byte(nil), valid...), make([]byte, 1<<20)...)

	for _, tc := range []struct {
		name string
		h    http.HandlerFunc
		want string
	}{
		{"corrupt, right length", body(corrupt, true), "not in model"},
		{"oversized, declared", body(oversized, true), "bytes, a lenet bundle"},
		{"oversized, chunked", body(oversized, false), "runs past"},
		{"truncated, declared", body(valid[:len(valid)-7], true), "bytes, a lenet bundle"},
		{"truncated, chunked", body(valid[:len(valid)-7], false), "read bundle"},
		{"empty, chunked", body(nil, false), "read bundle"},
	} {
		h := tc.h
		inject.Store(&h)
		changed, err := c.RevalidateBundle(ctx)
		if err == nil || changed {
			t.Fatalf("%s: changed=%v err=%v, want a refusal", tc.name, changed, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if c.model != model || c.bundleVersion != version || c.bundleETag != etag {
			t.Fatalf("%s: a refused bundle replaced the installed model state", tc.name)
		}
		if c.cache.Len() != 1 {
			t.Fatalf("%s: a refused bundle dropped the session cache", tc.name)
		}
		res, err := c.Recognize(ctx, sample)
		if err != nil {
			t.Fatalf("%s: client stopped answering: %v", tc.name, err)
		}
		if !res.CacheHit || res.Pred != first.Pred || res.BinaryPred != first.BinaryPred {
			t.Fatalf("%s: answer changed after a refused bundle: %+v, first %+v", tc.name, res, first)
		}
	}

	// With the edge answering again the same call is a plain 304.
	inject.Store(nil)
	if changed, err := c.RevalidateBundle(ctx); err != nil || changed {
		t.Fatalf("revalidation against the edge: changed=%v err=%v", changed, err)
	}
}

// A loaded client is lightweight: what it keeps alive is the model in the
// form the bundle ships it — one bit per binary weight — so at most twice
// the bundle's size plus a fixed slack for the HTTP client and the layer
// structs. At the parent of this change the same load kept the whole
// composite in float32, with a gradient for every weight: ~70x the bundle.
func TestLoadedClientRetainsAtMostTwiceTheBundle(t *testing.T) {
	// Wide enough that weights, not fixed costs, are what is measured.
	cfg := models.Config{Classes: 10, InC: 3, InH: 32, InW: 32, WidthScale: 0.5, Seed: 1}
	m, err := models.Build("alexnet", cfg)
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := modelio.EncodeBrowserBundle(m)
	if err != nil {
		t.Fatal(err)
	}
	m = nil // only its bundle is served: the server side must not count
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(bundle)))
		w.Write(bundle)
	}))
	defer srv.Close()

	live := func() uint64 {
		runtime.GC()
		runtime.GC() // the first cycle may only have queued finalizers
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	c, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	before := live()
	if err := c.LoadModel(context.Background(), "demo", "alexnet", cfg, 1); err != nil {
		t.Fatal(err)
	}
	after := live()
	runtime.KeepAlive(c)

	const slack = 256 << 10
	retained := int64(after) - int64(before)
	if budget := int64(2*len(bundle) + slack); retained > budget {
		t.Fatalf("loaded client retains %d KiB; bundle is %d KiB, budget 2x + %d KiB = %d KiB",
			retained>>10, len(bundle)>>10, slack>>10, budget>>10)
	}
	t.Logf("bundle %d KiB, client retains %d KiB", len(bundle)>>10, retained>>10)
}
