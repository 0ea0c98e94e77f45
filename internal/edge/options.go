package edge

import (
	"fmt"
	"log/slog"
	"time"

	"lcrs/internal/exitpolicy"
	"lcrs/internal/obs"
	"lcrs/internal/slo"
)

// Option configures a Server at construction. Options are applied in
// order by New, before any model is registered, which is exactly when
// the pool size, batching and codec policy must be known — the mutable
// Set* methods they replace were order-sensitive footguns (calling
// SetReplicas after Register silently did nothing for existing models).
//
// The webclient package configures its Client the same way; the two ends
// of the wire share one construction idiom.
type Option func(*Server) error

// New creates an edge server configured by the given options:
//
//	srv, err := edge.New(
//		edge.WithReplicas(8),
//		edge.WithBatching(16, edge.DefaultBatchWait),
//		edge.WithCodecs("f16", "q8"),
//	)
//
// With no options the server behaves like the zero configuration: a
// replica pool of runtime.NumCPU() per model, no micro-batching, every
// supported offload codec accepted, no request logging, a request journal
// of DefaultJournalSize entries, and a private metrics registry served at
// GET /metrics.
func New(opts ...Option) (*Server, error) {
	s := &Server{
		entries: map[string]*modelRec{},
		metrics: obs.NewRegistry(),
		journal: newJournal(DefaultJournalSize),
	}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// WithReplicas sets the per-model forward-context pool size. n <= 0
// keeps the default, runtime.NumCPU(). Larger pools admit more
// concurrent inferences at the cost of one set of scratch buffers each.
func WithReplicas(n int) Option {
	return func(s *Server) error {
		s.replicas = n
		return nil
	}
}

// WithBatching enables dynamic cross-request micro-batching: concurrent
// /v1/infer requests for one model are coalesced into a single batched
// forward once the pending sample count reaches max or wait expires,
// whichever is first. max <= 1 disables batching (the default); wait <= 0
// uses DefaultBatchWait.
func WithBatching(max int, wait time.Duration) Option {
	return func(s *Server) error {
		s.setBatching(max, wait)
		return nil
	}
}

// WithCodecs restricts the offload wire codecs the server accepts (and
// advertises) to the named ones. The raw codec is always accepted so v1
// clients keep working; unknown codec names fail construction.
func WithCodecs(names ...string) Option {
	return func(s *Server) error {
		return s.setCodecs(names...)
	}
}

// WithSlog enables structured request logging: one key=value (or JSON,
// depending on the handler) line per request carrying the request ID,
// method, path, status and duration, plus model/codec/prediction/
// telemetry fields on inference requests, and event logs (model
// registration). A nil logger disables logging, the default.
func WithSlog(l *slog.Logger) Option {
	return func(s *Server) error {
		s.logger = l
		return nil
	}
}

// WithJournal sets the request-journal capacity served at GET
// /v1/debug/requests. n == 0 keeps the default (DefaultJournalSize);
// n < 0 disables the journal entirely (the endpoint then returns an
// empty list).
func WithJournal(n int) Option {
	return func(s *Server) error {
		switch {
		case n < 0:
			s.journal = nil
		case n == 0:
			s.journal = newJournal(DefaultJournalSize)
		case n > 1<<20:
			return fmt.Errorf("edge: journal capacity %d unreasonably large", n)
		default:
			s.journal = newJournal(n)
		}
		return nil
	}
}

// WithTauControl gives every subsequently registered model an online tau
// controller (exitpolicy.Controller, DESIGN.md §12): the configured
// telemetry signal — windowed exit rate, binary-vs-main agreement, or
// edge utilization — is driven to cfg.Target by bounded, hysteresis-
// damped adjustments of the exit threshold, and the current threshold is
// pushed to clients in every infer response's Tau field. cfg is validated
// here (defaults filled in), so a bad configuration fails construction.
// Controller state is served in /v1/exitstats and the lcrs_tau_* metric
// families.
func WithTauControl(cfg exitpolicy.Config) Option {
	return func(s *Server) error {
		norm, err := cfg.Validate()
		if err != nil {
			return fmt.Errorf("edge: %w", err)
		}
		s.tauCfg = &norm
		return nil
	}
}

// WithAnswerCache gives every subsequently registered model a bounded
// content-addressed answer cache of n entries (anscache.go, DESIGN.md
// §14): offload frames are keyed by the canonical hash of their encoded
// payload (collab.FrameKey semantics), repeats are answered without a
// replica checkout, and concurrent identical misses are collapsed
// single-flight. The cache purges itself whenever the tau controller
// pushes a new threshold. n <= 0 disables the cache (the default).
// Cache behavior is observable in the lcrs_cache_* metric families and
// the cache_* fields of /v1/stats.
func WithAnswerCache(n int) Option {
	return func(s *Server) error {
		if n > 1<<20 {
			return fmt.Errorf("edge: answer cache size %d unreasonably large", n)
		}
		if n < 0 {
			n = 0
		}
		s.answerCap = n
		return nil
	}
}

// WithSLO turns on windowed SLO evaluation (internal/slo, DESIGN.md §16):
// every subsequently activated model version gets its own trailing-window
// aggregates (latency, errors, agreement, exit decisions, cache traffic),
// the configured objectives are graded over them with fast/slow burn
// states, GET /v1/health answers 503 while any objective fast-burns, GET
// /v1/slo serves the full verdict, and the lcrs_slo_* / lcrs_window_*
// gauge families export the same evaluation per scrape. cfg is validated
// here so a bad configuration fails construction. The engine reads the
// wall clock; deterministic tests inject theirs with SLO().SetClock
// before registering models.
func WithSLO(cfg slo.Config) Option {
	return func(s *Server) error {
		eng, err := slo.New(cfg, s.metrics)
		if err != nil {
			return fmt.Errorf("edge: %w", err)
		}
		s.slo = eng
		return nil
	}
}
