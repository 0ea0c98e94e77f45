// Package edge implements the paper's edge server: it hosts trained
// composite models, serves browser bundles (shared prefix + packed binary
// branch) to web clients, and executes the rest of the main branch on
// intermediate tensors received from clients whose binary branch was not
// confident (Algorithm 2, server side).
//
// Construct servers with New and functional options (options.go):
// WithReplicas, WithBatching, WithCodecs, WithSlog, WithJournal,
// WithTauControl, WithAnswerCache and WithSLO. The wire it speaks, frames
// and JSON bodies alike, is internal/collab. Models are hosted through the
// versioned registry (registry.go): Register stages and activates in one
// step, RegisterVersion/RegisterPack + Activate split deploy from cutover
// for zero-downtime hot-swap and rollback. Serving state is observable
// several ways: GET /v1/stats and GET /v1/exitstats return per-model JSON
// counters and decision telemetry, GET /metrics serves the same atomics
// plus per-stage latency histograms in the Prometheus text format
// (DESIGN.md sections 10-11, 15), and GET /v1/debug/requests lists the
// most recent requests with their correlation IDs.
package edge

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lcrs/internal/collab"
	"lcrs/internal/exitpolicy"
	"lcrs/internal/models"
	"lcrs/internal/obs"
	"lcrs/internal/slo"
)

// InferResponse and StageMicros alias collab's wire bodies only because
// the benchmark harness (benchmark/traced.go, benchmark/workloads.go)
// still names them here, and that harness changes only together with the
// benchmark itself. The next change to the benchmark should name the
// collab types and delete both aliases; nothing else uses them.
type (
	InferResponse = collab.InferResponse
	StageMicros   = collab.StageMicros
)

// entry is the complete serving state of ONE activated model version.
// Requests resolve an entry once (lookup's atomic load) and hold it for
// their whole life, so every component hanging off it — replica pool,
// batcher, answer cache, tau controller — belongs to exactly one version
// and a hot-swap can never mix versions inside a batch or a cache.
type entry struct {
	// name is the model name the entry serves under.
	name string
	// version is the content-addressed version string; etag is its quoted
	// form, the strong ETag of /v1/bundle and /v1/pack responses.
	version string
	etag    string
	model   *models.Composite
	bundle  []byte
	// pack is the raw deploy artifact when this version arrived via
	// RegisterPack (served at /v1/pack/{name}); nil for in-process
	// registrations.
	pack []byte
	// replicas is a bounded pool of eval-mode forward contexts: clones of
	// model that share every parameter tensor but own private per-layer
	// scratch buffers (models.Composite.CloneForInference). forward checks
	// a replica out, runs the main-branch rest on it, and returns it, so up
	// to cap(replicas) inferences run in parallel while memory stays
	// bounded at replicas x scratch footprint.
	replicas chan *models.Composite

	// maxBody caps an infer request body at the largest valid frame
	// (maxInferBody); admit enforces it.
	maxBody int64

	// batcher coalesces concurrent requests into shared batched forwards
	// when the server has batching enabled; nil otherwise (the default).
	batcher *batcher

	// ctrl is the model's tau controller (WithTauControl); nil otherwise
	// (the default). Written once at registration, read without further
	// synchronization like batcher.
	ctrl *tauControl

	// cache is the model's content-addressed answer cache (WithAnswerCache);
	// nil otherwise (the default). Written once at registration like batcher.
	cache *answerCache

	// checkouts counts replica checkouts — the invariant the answer cache
	// exists to protect (a hit must not move this) and what tests assert.
	checkouts atomic.Int64

	stats *modelStats

	// win is this version's windowed SLO target (WithSLO); nil otherwise.
	// It lives in the slo engine's per-(model,version) map, not here, so a
	// hot-swapped-out version's windows remain queryable (the A/B compare
	// surface) and re-activation resumes the same series.
	win *slo.Target
}

// batchHistBounds are the inclusive upper bounds of the batch-size
// histogram buckets; the last bucket ends at maxInferBatch, the largest
// batch a single forward can carry.
var batchHistBounds = []int{1, 2, 4, 8, 16, 32, 64, 128, maxInferBatch}

// modelStats tracks per-model serving counters and stage histograms. The
// counters live in the server's obs registry, so one atomic add updates
// both the /v1/stats JSON and the /metrics exposition; request paths
// never serialize on a stats lock.
type modelStats struct {
	InferRequests   *obs.Counter
	InferErrors     *obs.Counter
	BundleDownloads *obs.Counter
	PayloadBytes    *obs.Counter

	// Answer-cache counters (anscache.go): created unconditionally so
	// /metrics and /v1/stats reconcile whether or not the cache is enabled.
	CacheHits      *obs.Counter
	CacheMisses    *obs.Counter
	CacheEvictions *obs.Counter
	// cacheHit is the hit-path latency histogram (lcrs_cache_hit_seconds).
	cacheHit *obs.Histogram

	// Micro-batching counters: requests served through the coalescing
	// path, the subset that shared a forward with at least one other
	// request, and the number of batched forwards.
	BatchedRequests   *obs.Counter
	CoalescedRequests *obs.Counter
	Batches           *obs.Counter
	// batchSize buckets batched forwards by sample count (batchHistBounds).
	batchSize *obs.Histogram

	// stage holds one latency histogram per pipeline stage (trace.go).
	stage [numStages]*obs.Histogram

	// decision holds the exit/agreement telemetry handles (decision.go).
	decision decisionStats

	// codec counts served frames per wire codec, precreated for every
	// registered codec so the hot path never touches the registry mutex.
	codec map[collab.CodecID]*obs.Counter

	// ComputeMicros backs the AvgComputeMicros JSON field; the forward
	// stage histogram carries the same information in seconds for /metrics.
	ComputeMicros atomic.Int64
}

// ModelStats is the JSON form of one model's serving counters.
type ModelStats struct {
	Name string `json:"name"`
	// Version is the active version whose entry these counters were read
	// from; metric series survive hot-swaps (same name+label → same
	// atomics), so the counters span versions while Version names the one
	// serving now.
	Version         string `json:"version,omitempty"`
	InferRequests   int64  `json:"infer_requests"`
	InferErrors     int64  `json:"infer_errors"`
	BundleDownloads int64  `json:"bundle_downloads"`
	// AvgComputeMicros is the mean server-side compute per successful
	// inference.
	AvgComputeMicros int64 `json:"avg_compute_micros"`
	// PayloadBytes is the total offload frame bytes received — the number
	// the paper's communication-cost tables count, as served.
	PayloadBytes int64 `json:"payload_bytes"`
	// BatchedRequests counts requests served through the coalescing path;
	// CoalescedRequests is the subset that shared a batched forward with
	// at least one other request, and Batches the forwards executed for
	// them. All zero (and omitted) when batching is disabled.
	BatchedRequests   int64 `json:"batched_requests,omitempty"`
	CoalescedRequests int64 `json:"coalesced_requests,omitempty"`
	Batches           int64 `json:"batches,omitempty"`
	// BatchSizeHist buckets batched forwards by sample count.
	BatchSizeHist []HistBucket `json:"batch_size_hist,omitempty"`
	// Answer-cache counters (WithAnswerCache): requests answered without a
	// replica checkout, requests that went to compute, and entries dropped
	// (LRU pressure or tau-push invalidation). All zero (and omitted) when
	// the cache is disabled. With the cache enabled,
	// CacheHits + CacheMisses equals the successfully decoded infer
	// requests, so the three views reconcile by construction.
	CacheHits      int64 `json:"cache_hits,omitempty"`
	CacheMisses    int64 `json:"cache_misses,omitempty"`
	CacheEvictions int64 `json:"cache_evictions,omitempty"`
	// CacheHitP50Micros/P99 summarize the lcrs_cache_hit_seconds histogram;
	// present only after the first hit.
	CacheHitP50Micros int64 `json:"cache_hit_p50_micros,omitempty"`
	CacheHitP99Micros int64 `json:"cache_hit_p99_micros,omitempty"`
}

// HistBucket is one batch-size histogram bucket: Count batches carried a
// sample count in (previous bound, Le].
type HistBucket struct {
	Le    int   `json:"le"`
	Count int64 `json:"count"`
}

// Server hosts versioned models behind an http.Handler.
//
// Lifecycle: configure with New(options...), host models with Register
// (or RegisterVersion/RegisterPack + Activate), serve Handler, and Close
// exactly once traffic should stop. Close drains every active batcher —
// parked requests flush through one final forward — and is idempotent and
// safe against concurrent requests, but it is terminal: Register,
// RegisterVersion, RegisterPack and Activate all return ErrServerClosed
// afterwards, so a model can never start serving (unbatched, with
// goroutines past shutdown) on a server that already drained.
type Server struct {
	mu sync.RWMutex
	// entries maps model name → versioned record (registry.go); the record
	// holds every staged version and the atomically swappable active entry.
	entries  map[string]*modelRec
	logger   *slog.Logger
	journal  *journal
	replicas int
	// batchMax/batchWait configure micro-batching for subsequently
	// registered models; batchMax <= 1 (the default) disables it.
	batchMax  int
	batchWait time.Duration
	// codecs is the set of accepted offload wire codec ids; nil means
	// every codec internal/collab supports.
	codecs map[collab.CodecID]bool
	// metrics is the observability registry serving GET /metrics; always
	// non-nil for servers built with New.
	metrics *obs.Registry
	// tauCfg, when set (WithTauControl), gives every subsequently
	// registered model its own online tau controller (taucontrol.go).
	// Stored pre-validated, so Register cannot fail on it.
	tauCfg *exitpolicy.Config
	// answerCap, when positive (WithAnswerCache), gives every subsequently
	// registered model a content-addressed answer cache of that capacity.
	answerCap int
	// slo is the SLO engine (WithSLO), nil when SLOs are disabled.
	slo *slo.Engine
	// closed is set by Close; registration and activation reject with
	// ErrServerClosed afterwards so no serving state outlives shutdown.
	closed bool
}

// replicasFor returns the configured pool size, defaulting to NumCPU.
func (s *Server) replicasFor() int {
	if s.replicas > 0 {
		return s.replicas
	}
	return runtime.NumCPU()
}

func (s *Server) setBatching(max int, wait time.Duration) {
	if max > maxInferBatch {
		max = maxInferBatch
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batchMax = max
	s.batchWait = wait
}

// Close stops every active version's batcher, flushing parked requests
// through a final batched forward each. Requests that race with shutdown
// fall back to the direct per-request path, so in-flight HTTP handlers
// always get an answer. Close is idempotent and safe to call concurrently
// with requests, and terminal: subsequent Register/RegisterVersion/
// RegisterPack/Activate calls return ErrServerClosed (see the Server
// lifecycle doc).
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	var closing []*batcher
	for _, rec := range s.entries {
		if e := rec.active.Load(); e != nil && e.batcher != nil {
			closing = append(closing, e.batcher)
		}
	}
	s.mu.Unlock()
	for _, b := range closing {
		b.close()
	}
}

func (s *Server) setCodecs(names ...string) error {
	if len(names) == 0 {
		s.mu.Lock()
		s.codecs = nil
		s.mu.Unlock()
		return nil
	}
	set := map[collab.CodecID]bool{collab.CodecRaw: true}
	for _, name := range names {
		c, err := collab.CodecByName(name)
		if err != nil {
			return fmt.Errorf("edge: %w", err)
		}
		set[c.ID()] = true
	}
	s.mu.Lock()
	s.codecs = set
	s.mu.Unlock()
	return nil
}

// codecAccepted reports whether frames encoded with id are served.
func (s *Server) codecAccepted(id collab.CodecID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.codecs == nil || s.codecs[id]
}

// codecNamesLocked lists the advertised codec names in registry order.
// Callers must hold s.mu (either mode).
func (s *Server) codecNamesLocked() []string {
	var names []string
	for _, c := range collab.Codecs() {
		if s.codecs == nil || s.codecs[c.ID()] {
			names = append(names, c.Name())
		}
	}
	return names
}

// Metrics returns the server's observability registry — the one GET
// /metrics serves. Callers embedding the edge API under a larger mux can
// expose it elsewhere or add their own metrics to it.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Models lists hosted models sorted by name. A model whose versions are
// all staged (never activated) is listed from its most recently staged
// version with an empty active Version.
func (s *Server) Models() []collab.ModelInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	codecs := s.codecNamesLocked()
	var out []collab.ModelInfo
	for name, rec := range s.entries {
		info := collab.ModelInfo{
			Name:     name,
			Codecs:   codecs,
			Versions: append([]string(nil), rec.order...),
		}
		if e := rec.active.Load(); e != nil {
			info.Arch, info.Classes = e.model.Name, e.model.Cfg.Classes
			info.InC, info.InH, info.InW = e.model.Cfg.InC, e.model.Cfg.InH, e.model.Cfg.InW
			info.BundleBytes = len(e.bundle)
			info.Version = e.version
			info.HasPack = len(e.pack) > 0
		} else if len(rec.order) > 0 {
			st := rec.versions[rec.order[len(rec.order)-1]]
			info.Arch, info.Classes = st.model.Name, st.model.Cfg.Classes
			info.InC, info.InH, info.InW = st.model.Cfg.InC, st.model.Cfg.InH, st.model.Cfg.InW
			info.BundleBytes = len(st.bundle)
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats snapshots per-model serving counters. Counters are read with
// atomic loads, so a snapshot taken under load is per-field consistent,
// and the values are the same atomics /metrics exposes, so the two views
// reconcile by construction. Models are sorted by name; those without an
// activated version are omitted — they have never served.
func (s *Server) Stats() []ModelStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []ModelStats
	for name, rec := range s.entries {
		e := rec.active.Load()
		if e == nil {
			continue
		}
		st := ModelStats{
			Name:              name,
			Version:           e.version,
			InferRequests:     e.stats.InferRequests.Value(),
			InferErrors:       e.stats.InferErrors.Value(),
			BundleDownloads:   e.stats.BundleDownloads.Value(),
			PayloadBytes:      e.stats.PayloadBytes.Value(),
			BatchedRequests:   e.stats.BatchedRequests.Value(),
			CoalescedRequests: e.stats.CoalescedRequests.Value(),
			Batches:           e.stats.Batches.Value(),
			CacheHits:         e.stats.CacheHits.Value(),
			CacheMisses:       e.stats.CacheMisses.Value(),
			CacheEvictions:    e.stats.CacheEvictions.Value(),
		}
		if st.CacheHits > 0 {
			st.CacheHitP50Micros = int64(e.stats.cacheHit.Quantile(0.5) * 1e6)
			st.CacheHitP99Micros = int64(e.stats.cacheHit.Quantile(0.99) * 1e6)
		}
		if ok := st.InferRequests - st.InferErrors; ok > 0 {
			st.AvgComputeMicros = e.stats.ComputeMicros.Load() / ok
		}
		if st.Batches > 0 {
			_, counts := e.stats.batchSize.Buckets()
			// Overflow cannot occur (batches are capped at maxInferBatch,
			// the last bound), but fold it into the last bucket anyway so
			// the histogram never silently drops a count.
			counts[len(counts)-2] += counts[len(counts)-1]
			for i, le := range batchHistBounds {
				if c := counts[i]; c > 0 {
					st.BatchSizeHist = append(st.BatchSizeHist, HistBucket{Le: le, Count: c})
				}
			}
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Handler returns the HTTP API:
//
//	GET  /v1/healthz           liveness probe
//	GET  /v1/health            readiness: 503 + verdict while an SLO burns
//	GET  /v1/slo               full SLO verdict (objectives per version)
//	GET  /v1/models            JSON list of hosted models
//	GET  /v1/stats             JSON per-model serving counters
//	GET  /v1/exitstats         JSON per-model decision telemetry
//	GET  /v1/debug/requests    recent requests from the journal, newest first
//	GET  /v1/debug/trace/{id}  span tree of one journaled request
//	GET  /v1/bundle/{name}     browser bundle of the active version
//	GET  /v1/pack/{name}       raw deploy pack of the active version
//	POST /v1/infer/{name}      tensor frame in, InferResponse out
//	GET  /metrics              Prometheus text exposition
//
// Bundle and pack responses carry a strong ETag (the quoted model
// version) and an X-LCRS-Model-Version header, and honor If-None-Match
// and Range: a client revalidating an unchanged bundle gets 304 with zero
// body bytes, and an interrupted pack download resumes with 206. Infer
// responses echo the serving version the same way; a request that pins a
// version via X-LCRS-Model-Version is rejected with 409 when the active
// version differs (the client re-syncs its bundle first).
//
// Every response carries an X-Request-ID header; access logging (when a
// logger is configured) and the request journal hang off the same
// middleware, so each request is logged exactly once.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/health", s.handleHealth)
	mux.HandleFunc("/v1/slo", s.handleSLO)
	mux.HandleFunc("/v1/models", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Models())
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("/v1/exitstats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.ExitStats())
	})
	mux.HandleFunc("/v1/debug/requests", func(w http.ResponseWriter, r *http.Request) {
		entries := []JournalEntry{}
		if s.journal != nil {
			entries = s.journal.snapshot()
		}
		writeJSON(w, http.StatusOK, entries)
	})
	mux.HandleFunc("/v1/debug/trace/", s.handleTrace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.metrics.WritePrometheus(w); err != nil {
			// Headers are gone; nothing useful to do.
			_ = err
		}
	})
	mux.HandleFunc("/v1/bundle/", func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/v1/bundle/")
		e, ok := s.lookup(name)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown model %q", name), http.StatusNotFound)
			return
		}
		e.stats.BundleDownloads.Inc()
		s.serveVersioned(w, r, e, e.bundle)
	})
	mux.HandleFunc("/v1/pack/", func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/v1/pack/")
		e, ok := s.lookup(name)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown model %q", name), http.StatusNotFound)
			return
		}
		if len(e.pack) == 0 {
			http.Error(w, fmt.Sprintf("model %q was registered in-process; no pack artifact", name),
				http.StatusNotFound)
			return
		}
		s.serveVersioned(w, r, e, e.pack)
	})
	mux.HandleFunc("/v1/infer/", s.handleInfer)
	return s.traced(mux)
}

// serveVersioned serves a version-addressed immutable blob (bundle or
// pack) with the full conditional/range repertoire: the entry's quoted
// version is the strong ETag, so http.ServeContent answers If-None-Match
// revalidations with a bodyless 304 and Range requests with 206 — the
// single-packed-file + etag discipline of htpack applied to model
// artifacts. The zero modtime suppresses Last-Modified: version identity
// is content, never wall clock.
func (s *Server) serveVersioned(w http.ResponseWriter, r *http.Request, e *entry, blob []byte) {
	w.Header().Set("ETag", e.etag)
	w.Header().Set(collab.ModelVersionHeader, e.version)
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeContent(w, r, "", time.Time{}, bytes.NewReader(blob))
}

// statusRecorder captures the response status for request logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late for an error status; nothing useful to do.
		_ = err
	}
}
