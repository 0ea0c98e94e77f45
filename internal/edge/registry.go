package edge

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"lcrs/internal/modelio"
	"lcrs/internal/models"
	"lcrs/internal/obs"
)

// Versioned model registry (DESIGN.md §15). A model name now denotes a
// family of content-addressed versions, exactly one of which is active —
// the one /v1/infer, /v1/bundle and /v1/pack serve. Deploys are therefore
// two small steps: stage a version (RegisterVersion or RegisterPack, no
// effect on traffic) and Activate it (an atomic pointer swap). The legacy
// one-step path survives as Register, which stages and activates in one
// call and returns the assigned version.
//
// Zero-downtime contract: the new version's serving state — replica pool
// warmed to its allocation high-water mark, fresh batcher, fresh answer
// cache, fresh tau controller — is built completely BEFORE the swap, so
// the first request on the new version pays no warm-up; requests that
// resolved the old version finish on it untouched. Because a request pins
// one entry for its whole life (batcher, cache and replica pool all hang
// off the entry it resolved), a coalesced batch can never mix versions:
// the batcher firing a forward belongs to exactly one entry, and an
// answer cache never stores answers computed by different weights. After
// the swap the old version is drained, not killed: its batcher flushes
// parked requests through one final forward (the PR 3 close path), its
// answer cache is purged (the PR 8 tau-push sweep, so the memory is
// returned and no stale answer can resurface on rollback), and its
// replica pool is dropped for the collector once in-flight checkouts
// return.
//
// Observability: the active version travels in every infer response (JSON
// Version field and the X-LCRS-Model-Version header), in /v1/models and
// /v1/stats, and in two metric families the PR 5 telemetry can join A/B
// judgments against:
//
//	lcrs_model_version{model,version}      1 for the active version, 0 for
//	                                       every other staged version
//	lcrs_model_activations_total{model}    activations (deploys+rollbacks)
const (
	metricModelVersion     = "lcrs_model_version"
	metricModelActivations = "lcrs_model_activations_total"

	helpModelVersion     = "Registered model versions: 1 for the active version of a model, 0 for staged ones."
	helpModelActivations = "Model version activations (deploys and rollbacks)."
)

// ErrServerClosed is returned by Register, RegisterVersion, RegisterPack
// and Activate after Close: a closed server has drained its batchers and
// must not grow new serving state (a model registered post-Close would
// serve without coalescing and leak its goroutines past shutdown, which
// is exactly the bug this sentinel replaces — the old behavior silently
// served such models unbatched).
var ErrServerClosed = errors.New("edge: server closed")

// staged is one registered version of a model: weights and deploy
// metadata, but no serving state — that is built by Activate.
type staged struct {
	version string
	model   *models.Composite
	bundle  []byte
	// pack holds the raw deploy artifact when the version arrived via
	// RegisterPack; /v1/pack serves it byte-for-byte. nil for in-process
	// registrations.
	pack []byte
	// manifest is the pack's deploy metadata (tau seed, preferred codec);
	// nil for in-process registrations.
	manifest *modelio.PackManifest
}

// modelRec groups every staged version of one model name around the
// atomically swappable active entry.
type modelRec struct {
	name     string
	versions map[string]*staged
	order    []string // registration order, for listings
	active   atomic.Pointer[entry]
	// swapMu serializes Activate calls for this model so two concurrent
	// deploys cannot both swap and strand a live batcher. Request paths
	// never touch it — they only load the active pointer.
	swapMu sync.Mutex
}

// validModelName rejects names that would collide with URL routing.
func validModelName(name string) bool {
	return name != "" && !strings.ContainsAny(name, "/ ")
}

// Register stages m under name and activates it immediately, returning
// the assigned content-addressed version. This is the one-step deploy
// path (and the only replacement for the pre-versioning Register):
// registering different weights under an existing name is a hot-swap.
func (s *Server) Register(name string, m *models.Composite) (string, error) {
	version, err := s.RegisterVersion(name, m)
	if err != nil {
		return "", err
	}
	if err := s.Activate(name, version); err != nil {
		return "", err
	}
	return version, nil
}

// RegisterVersion stages a model version without touching traffic: the
// version (derived from the content digest of the full weights) becomes
// visible in /v1/models' versions list and the lcrs_model_version family,
// but is not served until Activate. Staging the same weights twice is
// idempotent and returns the same version.
func (s *Server) RegisterVersion(name string, m *models.Composite) (string, error) {
	digest, err := modelio.CompositeDigest(m)
	if err != nil {
		return "", fmt.Errorf("edge: digest %s: %w", name, err)
	}
	bundle, err := modelio.EncodeBrowserBundle(m)
	if err != nil {
		return "", fmt.Errorf("edge: bundle %s: %w", name, err)
	}
	st := &staged{version: modelio.VersionFromDigest(digest), model: m, bundle: bundle}
	if err := s.stage(name, st); err != nil {
		return "", err
	}
	return st.version, nil
}

// RegisterPack stages a version from a deploy pack (modelio.OpenPack):
// the pack's precomputed bundle is served as-is, the raw artifact is
// re-served at /v1/pack/{name} for fleet propagation, and — with
// WithTauControl — the pack manifest's tau seeds the version's controller
// so a retuned threshold deploys with the weights it was tuned for. The
// version is the pack's content-addressed version.
func (s *Server) RegisterPack(name string, p *modelio.ModelPack) (string, error) {
	if p == nil || p.Model == nil {
		return "", errors.New("edge: nil pack")
	}
	man := p.Manifest
	st := &staged{
		version:  p.Version(),
		model:    p.Model,
		bundle:   p.Bundle,
		pack:     p.Bytes(),
		manifest: &man,
	}
	if err := s.stage(name, st); err != nil {
		return "", err
	}
	return st.version, nil
}

// stage records a version under name, creating the model record on first
// use.
func (s *Server) stage(name string, st *staged) error {
	if !validModelName(name) {
		return fmt.Errorf("edge: invalid model name %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrServerClosed
	}
	rec := s.entries[name]
	if rec == nil {
		rec = &modelRec{name: name, versions: map[string]*staged{}}
		s.entries[name] = rec
	}
	if _, known := rec.versions[st.version]; !known {
		rec.order = append(rec.order, st.version)
	}
	rec.versions[st.version] = st
	g := s.metrics.Gauge(metricModelVersion, helpModelVersion,
		obs.Label{Key: "model", Value: name}, obs.Label{Key: "version", Value: st.version})
	if a := rec.active.Load(); a == nil || a.version != st.version {
		g.Set(0)
	}
	if s.logger != nil {
		s.logger.Info("model version staged", "model", name, "version", st.version,
			"arch", st.model.Name, "bundle_bytes", len(st.bundle), "from_pack", st.pack != nil)
	}
	return nil
}

// Activate makes the staged version of name the served one, hot-swapping
// with zero downtime: serving state is fully built (replica pool warmed,
// batcher and caches fresh) before an atomic pointer swap routes new
// requests to it; the replaced version's batcher is drained and its
// answer cache purged afterwards. Activating the version that is already
// active rebuilds its serving state (the pre-versioning re-Register
// semantics: fresh cache, fresh controller). Activating an earlier
// version again is a rollback — same protocol, no special case.
func (s *Server) Activate(name, version string) error {
	s.mu.RLock()
	rec := s.entries[name]
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return ErrServerClosed
	}
	if rec == nil {
		return fmt.Errorf("edge: unknown model %q", name)
	}
	rec.swapMu.Lock()
	defer rec.swapMu.Unlock()
	s.mu.RLock()
	st := rec.versions[version]
	s.mu.RUnlock()
	if st == nil {
		return fmt.Errorf("edge: model %q has no registered version %q", name, version)
	}

	// Build the complete serving state before anything is swapped: this is
	// the expensive part (replica clones, arena warm-up) and it happens
	// while the old version keeps serving.
	e, err := s.buildEntry(name, st)
	if err != nil {
		return err
	}

	s.mu.Lock()
	if s.closed {
		// Close won the race while we were warming replicas. Nothing to
		// undo: the batcher is only created below, under this lock, so the
		// discarded entry holds no goroutines.
		s.mu.Unlock()
		return ErrServerClosed
	}
	if s.batchMax > 1 {
		// Written exactly once, before the entry is published; handlers
		// read it without further synchronization.
		e.batcher = newBatcher(e, s.batchMax, s.batchWait)
	}
	old := rec.active.Swap(e)
	lm := obs.Label{Key: "model", Value: name}
	s.metrics.Gauge(metricModelVersion, helpModelVersion,
		lm, obs.Label{Key: "version", Value: version}).Set(1)
	if old != nil && old.version != version {
		s.metrics.Gauge(metricModelVersion, helpModelVersion,
			lm, obs.Label{Key: "version", Value: old.version}).Set(0)
	}
	s.metrics.Counter(metricModelActivations, helpModelActivations, lm).Inc()
	logger := s.logger
	s.mu.Unlock()

	// Drain the replaced version: requests that resolved it before the
	// swap finish on it (their answers are correct for the version they
	// pinned); nothing new can reach it.
	if old != nil {
		if old.batcher != nil {
			// Flushes parked requests through one final coalesced forward;
			// async so a long drain never delays the deploy's return.
			go old.batcher.close()
		}
		if old.cache != nil {
			// The purge frees the memory immediately and guarantees a
			// rollback to this version can never resurface answers computed
			// before the swap-away.
			old.cache.purge()
		}
	}
	if logger != nil {
		from := "none"
		if old != nil {
			from = old.version
		}
		logger.Info("model version activated", "model", name,
			"version", version, "previous", from, "replicas", cap(e.replicas),
			"batching", e.batcher != nil)
	}
	return nil
}

// buildEntry constructs the full serving state for one staged version.
func (s *Server) buildEntry(name string, st *staged) (*entry, error) {
	s.mu.RLock()
	n := s.replicasFor()
	warm := s.batchMax
	tauCfg := s.tauCfg
	answerCap := s.answerCap
	s.mu.RUnlock()
	if warm < 1 {
		warm = 1
	}
	pool := make(chan *models.Composite, n)
	for i := 0; i < n; i++ {
		// Serving replicas draw per-request scratch from a private bump
		// arena. Warming for the largest batch the replica will ever see
		// drives every slab to its high-water mark, so steady-state
		// forwards allocate nothing (the CI allocs budget test pins this).
		r := st.model.CloneForServing()
		r.WarmMainRest(warm)
		pool <- r
	}
	e := &entry{
		name:     name,
		version:  st.version,
		etag:     `"` + st.version + `"`,
		model:    st.model,
		bundle:   st.bundle,
		pack:     st.pack,
		replicas: pool,
		maxBody:  maxInferBody(st.model),
		stats:    newModelStats(s.metrics, name),
	}
	if tauCfg != nil {
		// Config was validated by WithTauControl, so construction cannot
		// fail; a fresh controller per activation means a hot-swapped model
		// re-seeds for its own weights.
		ctrl, err := newTauControl(s.metrics, name, *tauCfg)
		if err != nil {
			return nil, fmt.Errorf("edge: tau controller for %s: %w", name, err)
		}
		if st.manifest != nil && st.manifest.Tau > 0 {
			// The pack shipped a screened threshold with the weights: adopt
			// it as the controller's starting point instead of waiting for
			// the first client-reported tau (first-wins, so a fixed
			// InitialTau config still takes precedence — it seeded at
			// construction).
			ctrl.seed(st.manifest.Tau)
		}
		e.ctrl = ctrl
	}
	if answerCap > 0 {
		// A fresh cache per activation: a hot-swapped model never serves
		// answers computed by the weights it replaced.
		e.cache = newAnswerCache(answerCap, e.stats.CacheEvictions)
	}
	if s.slo != nil {
		// The engine's get-or-create keyed on (model, version) means a
		// re-activated version resumes its windowed series and the gauge
		// closures registered on first activation keep reading live data.
		e.win = s.slo.Target(name, st.version)
	}
	return e, nil
}

// lookup resolves a model name to its active serving entry. The double
// hop (map under RLock, then one atomic load) is what makes hot-swap
// invisible to the request path: the entry a request gets is immutable
// for its lifetime.
func (s *Server) lookup(name string) (*entry, bool) {
	s.mu.RLock()
	rec := s.entries[name]
	s.mu.RUnlock()
	if rec == nil {
		return nil, false
	}
	e := rec.active.Load()
	return e, e != nil
}

// ActiveVersion reports the currently served version of name ("" when the
// model is unknown or has no activated version yet).
func (s *Server) ActiveVersion(name string) string {
	if e, ok := s.lookup(name); ok {
		return e.version
	}
	return ""
}

// Versions lists every staged version of name in registration order.
func (s *Server) Versions(name string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec := s.entries[name]
	if rec == nil {
		return nil
	}
	return append([]string(nil), rec.order...)
}
