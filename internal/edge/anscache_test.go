package edge

import (
	"bytes"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lcrs/internal/collab"
	"lcrs/internal/exitpolicy"
	"lcrs/internal/obs"
	"lcrs/internal/tensor"
)

// cacheServer builds a server with the answer cache enabled and one
// registered model, returning the server, its entry (for the checkout
// counter), a test HTTP listener and a conv1 activation to offload.
func cacheServer(t *testing.T, opts ...Option) (*Server, *entry, *httptest.Server, *tensor.Tensor) {
	t.Helper()
	s := newServer(t, append([]Option{WithAnswerCache(8)}, opts...)...)
	m := testModel(t)
	if _, err := s.Register("demo", m); err != nil {
		t.Fatal(err)
	}
	e, ok := s.lookup("demo")
	if !ok {
		t.Fatal("registered model missing")
	}
	if e.cache == nil {
		t.Fatal("WithAnswerCache must build a per-model cache")
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	g := tensor.NewRNG(41)
	return s, e, srv, m.ForwardShared(g.Uniform(-1, 1, 1, 1, 28, 28), false)
}

// TestAnswerCacheHitZeroCheckouts is the tentpole's core edge assertion:
// an identical frame is answered from the cache without checking out a
// replica, the answer is byte-for-byte the computed one, and the
// hit/miss counters reconcile across /v1/stats and /metrics by
// construction.
func TestAnswerCacheHitZeroCheckouts(t *testing.T) {
	_, e, srv, shared := cacheServer(t)

	var frame bytes.Buffer
	if err := collab.WriteTensorCodec(&frame, shared, collab.Q8); err != nil {
		t.Fatal(err)
	}
	first := postInfer(t, srv.URL+"/v1/infer/demo", frame.Bytes())
	afterMiss := e.checkouts.Load()
	if afterMiss == 0 {
		t.Fatal("the first request must compute on a replica")
	}

	second := postInfer(t, srv.URL+"/v1/infer/demo", frame.Bytes())
	if got := e.checkouts.Load(); got != afterMiss {
		t.Fatalf("cache hit checked out a replica: checkouts %d -> %d", afterMiss, got)
	}
	if second.Pred != first.Pred {
		t.Fatalf("cached pred %d != computed pred %d", second.Pred, first.Pred)
	}
	if len(second.Probs) != len(first.Probs) {
		t.Fatalf("cached probs len %d != %d", len(second.Probs), len(first.Probs))
	}
	for i := range first.Probs {
		if second.Probs[i] != first.Probs[i] {
			t.Fatalf("prob[%d]: cached %v != computed %v", i, second.Probs[i], first.Probs[i])
		}
	}
	if second.ServerMicros != 0 {
		t.Fatalf("a hit runs no forward; ServerMicros = %d", second.ServerMicros)
	}
	if second.Stages == nil || second.Stages.Forward != 0 || second.Stages.Queue != 0 {
		t.Fatalf("hit stages must leave queue/forward zero: %+v", second.Stages)
	}

	// A different frame misses: content addressing, not model-level memo.
	perturbed := tensor.FromSlice(append([]float32(nil), shared.Data...), shared.Shape...)
	perturbed.Data[0] += 2
	var other bytes.Buffer
	if err := collab.WriteTensorCodec(&other, perturbed, collab.Q8); err != nil {
		t.Fatal(err)
	}
	postInfer(t, srv.URL+"/v1/infer/demo", other.Bytes())
	if got := e.checkouts.Load(); got != afterMiss+1 {
		t.Fatalf("distinct frame must compute: checkouts = %d, want %d", got, afterMiss+1)
	}

	// /v1/stats and /metrics read the same atomics.
	var stats []ModelStats
	getJSON(t, srv.URL+"/v1/stats", &stats)
	if len(stats) != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	st := stats[0]
	if st.CacheHits != 1 || st.CacheMisses != 2 || st.InferRequests != 3 {
		t.Fatalf("hits/misses/requests = %d/%d/%d, want 1/2/3", st.CacheHits, st.CacheMisses, st.InferRequests)
	}
	if st.CacheHits+st.CacheMisses != st.InferRequests {
		t.Fatal("with the cache enabled, hits + misses must equal decoded infer requests")
	}
	if st.CacheHitP50Micros <= 0 {
		t.Fatalf("hit latency summary missing: %+v", st)
	}
	samples := scrape(t, srv.URL)
	model := `{model="demo"}`
	for series, want := range map[string]float64{
		metricCacheHits + model:                  float64(st.CacheHits),
		metricCacheMisses + model:                float64(st.CacheMisses),
		metricCacheEvictions + model:             float64(st.CacheEvictions),
		metricCacheHitSeconds + "_count" + model: float64(st.CacheHits),
		metricInferRequests + model:              float64(st.InferRequests),
	} {
		if got := samples[series]; got != want {
			t.Errorf("%s = %v, want %v (must reconcile with /v1/stats)", series, got, want)
		}
	}
}

// TestAnswerCacheSingleFlight exercises the flight protocol directly
// (leader/follower handoff) and then over HTTP: a concurrent burst of one
// identical frame must collapse so that hits + misses equals the burst
// size and every miss is a real checkout.
func TestAnswerCacheSingleFlight(t *testing.T) {
	reg := obs.NewRegistry()
	evict := reg.Counter("test_evictions_total", "")
	c := newAnswerCache(4, evict)
	key := collab.FrameKey(collab.CodecRaw, []byte{1, 2, 3})

	if _, hit, leader, _ := c.lookup(key); hit || !leader {
		t.Fatal("first lookup must elect a leader")
	}
	// Re-lookup while the flight is open: a follower, not a second leader.
	_, hit, leader, fl := c.lookup(key)
	if hit || leader || fl == nil {
		t.Fatal("second lookup during a flight must return the flight")
	}
	done := make(chan cachedAnswer, 1)
	go func() {
		<-fl.done
		done <- fl.ans
	}()
	// The leader's original flight handle: re-derive it by completing with
	// the same key (complete takes the flight to close).
	_, _, _, leaderFl := c.lookup(key)
	if leaderFl != fl {
		t.Fatal("all waiters share one flight")
	}
	c.complete(key, fl, cachedAnswer{pred: 7})
	select {
	case ans := <-done:
		if ans.pred != 7 {
			t.Fatalf("follower got pred %d, want 7", ans.pred)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower never released")
	}
	if ans, hit, _, _ := c.lookup(key); !hit || ans.pred != 7 {
		t.Fatal("completed answer must be cached")
	}

	// Aborted flights release followers without caching anything.
	key2 := collab.FrameKey(collab.CodecRaw, []byte{9})
	_, _, _, fl2 := c.lookup(key2)
	c.abort(key2, fl2)
	if fl2.ok {
		t.Fatal("aborted flight must not report an answer")
	}
	if _, hit, leader, _ := c.lookup(key2); hit || !leader {
		t.Fatal("after an abort the next lookup becomes the new leader")
	}

	// HTTP burst: N identical concurrent requests.
	_, e, srv, shared := cacheServer(t)
	var frame bytes.Buffer
	if err := collab.WriteTensorCodec(&frame, shared, collab.Q8); err != nil {
		t.Fatal(err)
	}
	const burst = 16
	var wg sync.WaitGroup
	preds := make([]int, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			preds[i] = postInfer(t, srv.URL+"/v1/infer/demo", frame.Bytes()).Pred
		}(i)
	}
	wg.Wait()
	for i := 1; i < burst; i++ {
		if preds[i] != preds[0] {
			t.Fatalf("burst answers disagree: %v", preds)
		}
	}
	hits := e.stats.CacheHits.Value()
	misses := e.stats.CacheMisses.Value()
	if hits+misses != burst {
		t.Fatalf("hits %d + misses %d != burst %d", hits, misses, burst)
	}
	if misses < 1 || hits < 1 {
		t.Fatalf("burst must both compute (>=1 miss) and collapse (>=1 hit): hits %d misses %d", hits, misses)
	}
	if got := e.checkouts.Load(); got != misses {
		t.Fatalf("checkouts %d != misses %d: only misses may touch the pool", got, misses)
	}
}

// TestAnswerCacheEviction pins the LRU bound and the eviction counter.
func TestAnswerCacheEviction(t *testing.T) {
	reg := obs.NewRegistry()
	evict := reg.Counter("test_evictions_total", "")
	c := newAnswerCache(2, evict)
	keys := []collab.Key{
		collab.FrameKey(collab.CodecRaw, []byte{1}),
		collab.FrameKey(collab.CodecRaw, []byte{2}),
		collab.FrameKey(collab.CodecRaw, []byte{3}),
	}
	for i, k := range keys {
		_, _, _, fl := c.lookup(k)
		c.complete(k, fl, cachedAnswer{pred: i})
	}
	if c.Len() != 2 || evict.Value() != 1 {
		t.Fatalf("len %d evictions %d, want 2 and 1", c.Len(), evict.Value())
	}
	// keys[0] was oldest; keys[1] and keys[2] survive.
	if _, hit, _, fl := c.lookup(keys[0]); hit {
		t.Fatal("evicted key still hit")
	} else {
		c.abort(keys[0], fl)
	}
	for _, k := range keys[1:] {
		if _, hit, _, _ := c.lookup(k); !hit {
			t.Fatalf("resident key %v missed", k)
		}
	}
}

// TestAnswerCacheTauInvalidation: a pushed tau change purges the cache,
// so no cached answer predates the controller's move. Window 4 with full
// authority moves tau on the fourth telemetry frame; the fifth identical
// frame must recompute.
func TestAnswerCacheTauInvalidation(t *testing.T) {
	_, e, srv, shared := cacheServer(t, WithTauControl(exitpolicy.Config{
		Mode:           exitpolicy.ModeExitRate,
		Target:         0.5,
		Band:           0.05,
		Gain:           1,
		MaxStep:        0.08,
		Window:         4,
		AdoptClientTau: true,
	}))
	tel := &collab.Telemetry{Entropy: 0.6, Tau: 0.25, BinaryPred: 3}
	frame := telemetryFrame(t, shared, tel)

	var last collab.InferResponse
	for i := 0; i < 4; i++ {
		last = postInfer(t, srv.URL+"/v1/infer/demo", frame)
	}
	if last.Tau == nil || *last.Tau == 0.25 {
		t.Fatalf("window must push a moved tau, got %+v", last.Tau)
	}
	if hits := e.stats.CacheHits.Value(); hits != 3 {
		t.Fatalf("frames 2-4 must hit, got %d hits", hits)
	}
	if e.cache.Len() != 0 {
		t.Fatalf("tau push must purge the cache, %d entries remain", e.cache.Len())
	}
	if ev := e.stats.CacheEvictions.Value(); ev != 1 {
		t.Fatalf("purged entries count as evictions, got %d", ev)
	}
	before := e.checkouts.Load()
	postInfer(t, srv.URL+"/v1/infer/demo", frame)
	if got := e.checkouts.Load(); got != before+1 {
		t.Fatal("post-push frame must recompute under the new threshold")
	}
}

// TestAnswerCacheHitZeroAllocs is the CI allocs budget for the hit path:
// canonical key + cache lookup + counters + hit histogram — everything a
// hit adds beyond frame decode — must not allocate.
func TestAnswerCacheHitZeroAllocs(t *testing.T) {
	if raceDetectorOn {
		t.Skip("race runtime allocates; budget only meaningful without -race")
	}
	reg := obs.NewRegistry()
	st := newModelStats(reg, "allocs")
	c := newAnswerCache(8, st.CacheEvictions)
	payload := bytes.Repeat([]byte{0x5a}, 1014)
	key := collab.FrameKey(collab.Q8.ID(), payload)
	_, _, _, fl := c.lookup(key)
	c.complete(key, fl, cachedAnswer{pred: 3, preds: []int{3}, probs: make([]float32, 10)})

	avg := testing.AllocsPerRun(100, func() {
		k := collab.FrameKey(collab.Q8.ID(), payload)
		start := time.Now()
		ans, hit, _, _ := c.lookup(k)
		if !hit || ans.pred != 3 {
			t.Fatal("warmed key must hit")
		}
		st.CacheHits.Inc()
		st.InferRequests.Inc()
		st.cacheHit.ObserveDuration(time.Since(start))
	})
	if avg != 0 {
		t.Fatalf("cache hit path allocates %.1f objects/op, want 0", avg)
	}
}
