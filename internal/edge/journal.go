package edge

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"time"

	"lcrs/internal/collab"
)

// Request journal and correlation. Every response carries an X-Request-ID
// header — the client's own ID when it sent an acceptable one (see
// collab.SanitizeRequestID), a server-generated one otherwise — and the
// last DefaultJournalSize requests are kept in a bounded in-memory ring
// served at GET /v1/debug/requests, newest first. The journal is a
// debugging view, not an audit log: it skips the observability endpoints'
// self-traffic (/metrics, /v1/debug/requests) so scraping doesn't evict
// the requests someone is trying to debug.

// DefaultJournalSize is the request-journal capacity used when WithJournal
// is not given: small enough to be memory-noise, large enough to hold a
// burst worth of requests.
const DefaultJournalSize = 256

// JournalEntry is one journaled request. Inference-specific fields are
// pointers so a legitimate zero (class 0, entropy 0) survives omitempty.
type JournalEntry struct {
	ID             string    `json:"id"`
	Time           time.Time `json:"time"`
	Method         string    `json:"method"`
	Path           string    `json:"path"`
	Status         int       `json:"status"`
	DurationMicros int64     `json:"duration_micros"`
	Model          string    `json:"model,omitempty"`
	// Version is the model version that served this request (infer only).
	Version      string   `json:"version,omitempty"`
	Codec        string   `json:"codec,omitempty"`
	PayloadBytes int64    `json:"payload_bytes,omitempty"`
	Samples      int      `json:"samples,omitempty"`
	Pred         *int     `json:"pred,omitempty"`
	Entropy      *float64 `json:"entropy,omitempty"`
	BinaryPred   *int     `json:"binary_pred,omitempty"`
	Agree        *bool    `json:"agree,omitempty"`
	// TraceID is the request's trace identity (the X-LCRS-Trace parent's
	// ID when the client sent one, the request ID otherwise), and Spans
	// the client→edge waterfall resolved at /v1/debug/trace/{id}.
	TraceID string `json:"trace_id,omitempty"`
	Spans   []Span `json:"spans,omitempty"`
}

// journal is the bounded ring. One small mutex-guarded copy per request is
// far off the forward-pass hot path; no atomics gymnastics needed.
type journal struct {
	mu      sync.Mutex
	entries []JournalEntry
	next    int
	filled  bool
}

func newJournal(capacity int) *journal {
	return &journal{entries: make([]JournalEntry, capacity)}
}

func (j *journal) add(e JournalEntry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.entries[j.next] = e
	j.next++
	if j.next == len(j.entries) {
		j.next, j.filled = 0, true
	}
}

// snapshot returns the journaled requests, newest first.
func (j *journal) snapshot() []JournalEntry {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := j.next
	if j.filled {
		n = len(j.entries)
	}
	out := make([]JournalEntry, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, j.entries[(j.next-i+len(j.entries))%len(j.entries)])
	}
	return out
}

// reqInfo is the per-request record the traced middleware allocates and
// hands down through the request context: the journal entry it writes once
// the handler returns and, on /v1/infer, the outcome handleInfer fills
// (observe completes the entry's inference fields from it).
type reqInfo struct {
	entry JournalEntry
	out   inferOutcome
}

type ctxKey int

const reqInfoKey ctxKey = iota

func reqInfoFrom(ctx context.Context) *reqInfo {
	info, _ := ctx.Value(reqInfoKey).(*reqInfo)
	return info
}

// journalSkip lists paths whose self-traffic would flood the journal:
// the observability endpoints themselves (/metrics scrapes, debug views)
// and the health/SLO probes a load balancer hits every few seconds.
// Windowed SLO metrics don't need this list — they are fed exclusively
// inside handleInfer, so probe and scrape traffic can never reach them —
// but the journal ring sees every request and must skip explicitly, or
// a 2s probe interval would evict the inferences someone is debugging.
func journalSkip(path string) bool {
	return path == "/metrics" ||
		path == "/v1/health" || path == "/v1/healthz" || path == "/v1/slo" ||
		strings.HasPrefix(path, "/v1/debug/")
}

// traced is the single per-request middleware: it resolves the request ID
// (accepting the client's, minting one otherwise), echoes it on the
// response, times the request, then emits exactly one access-log line and
// one journal entry. It replaces the pre-slog logRequests wrapper.
func (s *Server) traced(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := collab.SanitizeRequestID(r.Header.Get(collab.RequestIDHeader))
		if id == "" {
			id = collab.NewRequestID()
		}
		// The request ID doubles as the trace ID so every journaled request
		// is trace-addressable, header or not.
		info := &reqInfo{entry: JournalEntry{ID: id, TraceID: id}}
		if tp, ok := collab.ParseTrace(r.Header.Get(collab.TraceHeader)); ok {
			if tp.ID != "" {
				info.entry.TraceID = tp.ID
			}
			info.out.clientLocal, info.out.clientEncode = tp.LocalMicros, tp.EncodeMicros
		}
		w.Header().Set(collab.RequestIDHeader, id)
		w.Header().Set(collab.TraceHeader, info.entry.TraceID)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(rec, r.WithContext(context.WithValue(r.Context(), reqInfoKey, info)))
		j := &info.entry
		j.Time, j.Method, j.Path = start.UTC(), r.Method, r.URL.Path
		j.Status, j.DurationMicros = rec.status, time.Since(start).Microseconds()

		if s.logger != nil {
			attrs := make([]any, 0, 16)
			attrs = append(attrs,
				"id", id, "method", r.Method, "path", r.URL.Path,
				"status", j.Status, "dur_micros", j.DurationMicros)
			if j.Model != "" {
				attrs = append(attrs, "model", j.Model)
			}
			if j.Codec != "" {
				attrs = append(attrs, "codec", j.Codec)
			}
			if j.Pred != nil {
				attrs = append(attrs, "pred", *j.Pred)
			}
			if j.Entropy != nil {
				attrs = append(attrs, "entropy", *j.Entropy)
			}
			if j.Agree != nil {
				attrs = append(attrs, "agree", *j.Agree)
			}
			s.logger.Info("request", attrs...)
		}
		if s.journal != nil && !journalSkip(r.URL.Path) {
			s.journal.add(*j)
		}
	})
}
