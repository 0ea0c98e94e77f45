// Package slo evaluates service-level objectives over trailing time
// windows (DESIGN.md §16). It answers the question the cumulative metric
// families of internal/obs cannot: is the system inside its budget
// *right now*?
//
// The engine tracks one Target per (model, version). A target owns one
// ring of Slots time slots that the edge feeds once per inference —
// latency, errors, binary-vs-main agreement, early-exit decisions,
// answer-cache traffic — and the engine grades each configured objective
// over two horizons:
//
//   - the long window (Config.Window): a sustained violation here is a
//     slow_burn — the budget is eroding, flag it but keep serving;
//   - the fast window (Config.FastWindow, a trailing slice of the same
//     ring): a violation here with enough samples is a fast_burn — the
//     budget is torching, readiness (/v1/health) goes 503 so a fleet
//     gateway stops routing here (the ROADMAP admission-control signal).
//
// An objective with fewer than MinSamples observations in the long
// window is no_data, deliberately distinct from ok: a version that has
// served nothing is not known-good, and obs.NoData quantiles never leak
// into the grading as "p99 = 0s, looks fast".
//
// Everything /v1/slo reports is computed by the same grading that backs
// the lcrs_slo_* gauge functions, evaluated at scrape time — the two
// views reconcile by construction, not by synchronized bookkeeping.
package slo

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lcrs/internal/obs"
)

// Objective state values, exported in lcrs_slo_state in this order so a
// dashboard can alert on `>= 2`.
const (
	StateNoData   = "no_data"
	StateOK       = "ok"
	StateSlowBurn = "slow_burn"
	StateFastBurn = "fast_burn"
)

func stateValue(s string) float64 {
	switch s {
	case StateOK:
		return 1
	case StateSlowBurn:
		return 2
	case StateFastBurn:
		return 3
	default:
		return 0
	}
}

// Objective names as they appear in verdicts and the `objective` label.
const (
	ObjLatencyP99 = "latency_p99"
	ObjErrorRate  = "error_rate"
	ObjAgreement  = "agreement"
	ObjExitRate   = "exit_rate"
)

// Slots is the ring resolution: the long window is divided into this
// many equal time slots (5s slots for the default 60s window).
const Slots = 12

// Config declares the objectives and the evaluation horizons. Zero
// values for individual objectives disable them; Validate fills horizon
// defaults.
type Config struct {
	// Window is the long (slow-burn) horizon; it must divide into Slots
	// equal slots. Default 60s.
	Window time.Duration
	// FastWindow is the fast-burn horizon, a trailing slice of the same
	// ring (must be <= Window). Default 10s.
	FastWindow time.Duration
	// MinSamples is the minimum observation count, per objective, below
	// which the objective is no_data rather than graded. Default 20.
	MinSamples int64

	// LatencyP99 is the p99 infer-latency ceiling; 0 disables.
	LatencyP99 time.Duration
	// MaxErrorRate is the error-rate ceiling in [0,1]; 0 disables
	// (an all-errors SLO of exactly zero is not gradeable anyway).
	MaxErrorRate float64
	// MinAgreement is the binary-vs-main agreement floor in [0,1];
	// 0 disables.
	MinAgreement float64
	// ExitRateMin/Max bound the early-exit rate band; both 0 disables.
	// The band guards the paper's operating point from both sides: an
	// exit rate collapsing toward 0 floods the edge, one racing toward 1
	// means the binary branch is answering everything unchecked.
	ExitRateMin float64
	ExitRateMax float64
}

// Validate normalizes the config, filling horizon defaults and
// rejecting inconsistent horizons.
func (c *Config) Validate() error {
	if c.Window == 0 {
		c.Window = 60 * time.Second
	}
	if c.FastWindow == 0 {
		c.FastWindow = 10 * time.Second
	}
	if c.MinSamples == 0 {
		c.MinSamples = 20
	}
	if c.Window <= 0 || c.FastWindow <= 0 {
		return fmt.Errorf("slo: horizons must be positive (window=%v fast=%v)", c.Window, c.FastWindow)
	}
	if c.FastWindow > c.Window {
		return fmt.Errorf("slo: fast window %v exceeds long window %v", c.FastWindow, c.Window)
	}
	if c.Window%Slots != 0 {
		return fmt.Errorf("slo: window %v not divisible into %d slots", c.Window, Slots)
	}
	for name, v := range map[string]float64{
		"max_error_rate": c.MaxErrorRate,
		"min_agreement":  c.MinAgreement,
		"exit_rate_min":  c.ExitRateMin,
		"exit_rate_max":  c.ExitRateMax,
	} {
		if v < 0 || v > 1 {
			return fmt.Errorf("slo: %s %v outside [0,1]", name, v)
		}
	}
	if c.ExitRateMax > 0 && c.ExitRateMin > c.ExitRateMax {
		return fmt.Errorf("slo: exit rate band [%v,%v] inverted", c.ExitRateMin, c.ExitRateMax)
	}
	if c.LatencyP99 < 0 {
		return fmt.Errorf("slo: negative latency objective %v", c.LatencyP99)
	}
	return nil
}

// Engine evaluates objectives over per-(model,version) targets. Targets
// are created on first use and live for the engine's lifetime — a
// version that was hot-swapped out keeps its windows queryable (they
// decay to no_data on their own), which is exactly what an A/B judge
// comparing the outgoing and incoming versions needs.
type Engine struct {
	cfg   Config
	reg   *obs.Registry // nil: no gauge export
	clock atomic.Pointer[func() time.Time]

	mu      sync.RWMutex
	targets map[targetKey]*Target
	order   []*Target // insertion order
}

type targetKey struct{ model, version string }

// New builds an engine. reg may be nil to skip gauge export (tests,
// offline evaluation); otherwise every target registers its lcrs_slo_*
// and lcrs_window_* gauge functions there.
func New(cfg Config, reg *obs.Registry) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		cfg:     cfg,
		reg:     reg,
		targets: make(map[targetKey]*Target),
	}, nil
}

// Config returns the validated configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetClock injects the time source every target places observations
// and ends its windows by (nil restores wall time). For deterministic
// tests and the slo bench experiment; set it before the first Target,
// since a target's age for the covered-seconds rate is read from the
// clock current at its creation.
func (e *Engine) SetClock(clock func() time.Time) {
	if clock == nil {
		e.clock.Store(nil)
		return
	}
	e.clock.Store(&clock)
}

func (e *Engine) now() time.Time {
	if c := e.clock.Load(); c != nil {
		return (*c)()
	}
	return time.Now()
}

// Target returns the windowed aggregates for (model, version), creating
// them on first use. Safe for concurrent use; the returned target is
// stable for the engine's lifetime, so callers may cache it.
func (e *Engine) Target(model, version string) *Target {
	k := targetKey{model, version}
	e.mu.RLock()
	t := e.targets[k]
	e.mu.RUnlock()
	if t != nil {
		return t
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if t = e.targets[k]; t != nil {
		return t
	}
	t = &Target{
		Model:   model,
		Version: version,
		now:     e.now,
		slotNS:  int64(e.cfg.Window / Slots),
		bornNS:  e.now().UnixNano(),
	}
	for i := range t.ring {
		t.ring[i].Latency = make([]int64, len(latencyBounds)+1)
	}
	e.targets[k] = t
	e.order = append(e.order, t)
	if e.reg != nil {
		e.registerGauges(t)
	}
	return t
}

// registerGauges installs the per-target gauge functions. Each closure
// merges the ring and runs the same grading Evaluate uses, at scrape
// time, so /metrics and /v1/slo cannot drift. Called with e.mu held,
// once per target (obs.GaugeFunc is first-registration-wins, so a
// re-activated version reusing its target re-registers harmlessly).
func (e *Engine) registerGauges(t *Target) {
	l := []obs.Label{{Key: "model", Value: t.Model}, {Key: "version", Value: t.Version}}
	long := func() Window { return t.Window(e.cfg.Window) }
	value := func(f func(Window) (float64, int64)) func() float64 {
		return func() float64 { v, _ := f(long()); return v }
	}
	// Windowed aggregates: the live per-version comparison surface.
	e.reg.GaugeFunc("lcrs_window_infer_rate",
		"Inference requests per second over the trailing SLO window.",
		func() float64 { return long().Rate() }, l...)
	e.reg.GaugeFunc("lcrs_window_error_rate",
		"Errored fraction of inference requests over the trailing SLO window; -1 when no traffic.",
		value(Window.ErrorRate), l...)
	e.reg.GaugeFunc("lcrs_window_latency_p99_seconds",
		"p99 inference latency over the trailing SLO window; -1 (obs.NoData) when no traffic.",
		value(Window.LatencyP99), l...)
	e.reg.GaugeFunc("lcrs_window_agree_rate",
		"Binary-vs-main top-1 agreement over the trailing SLO window; -1 when no judged samples.",
		value(Window.AgreeRate), l...)
	e.reg.GaugeFunc("lcrs_window_exit_rate",
		"Local early-exit fraction over the trailing SLO window; -1 when no decisions.",
		value(Window.ExitRate), l...)
	e.reg.GaugeFunc("lcrs_window_cache_hit_rate",
		"Edge answer-cache hit fraction over the trailing SLO window; -1 when no lookups.",
		value(Window.CacheHitRate), l...)
	// SLO grading, one state/value pair per enabled objective.
	for _, obj := range e.enabledObjectives() {
		obj := obj
		lo := append(append([]obs.Label(nil), l...), obs.Label{Key: "objective", Value: obj})
		e.reg.GaugeFunc("lcrs_slo_state",
			"SLO objective state: 0 no_data, 1 ok, 2 slow_burn, 3 fast_burn.",
			func() float64 { return stateValue(e.gradeObjective(t, obj).State) }, lo...)
		e.reg.GaugeFunc("lcrs_slo_value",
			"Long-window value the SLO objective is graded on; -1 when no data.",
			func() float64 { return e.gradeObjective(t, obj).Value }, lo...)
	}
	e.reg.GaugeFunc("lcrs_slo_burning",
		"1 when any objective for this model version is in fast_burn (readiness 503), else 0.",
		func() float64 {
			if e.gradeTarget(t).Burning {
				return 1
			}
			return 0
		}, l...)
}

func (e *Engine) enabledObjectives() []string {
	var objs []string
	if e.cfg.LatencyP99 > 0 {
		objs = append(objs, ObjLatencyP99)
	}
	if e.cfg.MaxErrorRate > 0 {
		objs = append(objs, ObjErrorRate)
	}
	if e.cfg.MinAgreement > 0 {
		objs = append(objs, ObjAgreement)
	}
	if e.cfg.ExitRateMax > 0 {
		objs = append(objs, ObjExitRate)
	}
	return objs
}

// ObjectiveStatus is the grading of one objective for one target.
type ObjectiveStatus struct {
	Name string `json:"name"`
	// State is no_data, ok, slow_burn or fast_burn.
	State string `json:"state"`
	// Value is the long-window measurement (seconds for latency_p99,
	// a rate in [0,1] otherwise); -1 when no data.
	Value float64 `json:"value"`
	// FastValue is the same measurement over the fast window.
	FastValue float64 `json:"fast_value"`
	// Threshold is the configured bound (for exit_rate, the upper bound;
	// ThresholdLow carries the lower).
	Threshold    float64 `json:"threshold"`
	ThresholdLow float64 `json:"threshold_low,omitempty"`
	// Samples is the observation count in the long window.
	Samples int64 `json:"samples"`
}

// TargetVerdict is the full grading of one (model, version).
type TargetVerdict struct {
	Model      string            `json:"model"`
	Version    string            `json:"version"`
	Burning    bool              `json:"burning"`
	Objectives []ObjectiveStatus `json:"objectives"`
}

// Verdict is the engine-wide grading: what /v1/slo serves and what
// /v1/health summarizes.
type Verdict struct {
	// Healthy is false iff any target has a fast-burning objective.
	Healthy bool `json:"healthy"`
	// State is fast_burn if any target burns, else slow_burn if any
	// slow-burns, else ok (or no_data when there are no graded targets).
	State         string          `json:"state"`
	WindowSecs    float64         `json:"window_secs"`
	FastWindowSec float64         `json:"fast_window_secs"`
	Targets       []TargetVerdict `json:"targets"`
}

// Evaluate grades every target against every enabled objective. The
// same code path backs the gauge functions, so a /metrics scrape and a
// /v1/slo response taken at the same instant agree.
func (e *Engine) Evaluate() Verdict {
	e.mu.RLock()
	targets := append([]*Target(nil), e.order...)
	e.mu.RUnlock()

	v := Verdict{
		Healthy:       true,
		State:         StateNoData,
		WindowSecs:    e.cfg.Window.Seconds(),
		FastWindowSec: e.cfg.FastWindow.Seconds(),
	}
	sawOK, sawSlow := false, false
	for _, t := range targets {
		tv := e.gradeTarget(t)
		for _, st := range tv.Objectives {
			switch st.State {
			case StateSlowBurn:
				sawSlow = true
			case StateOK:
				sawOK = true
			}
		}
		if tv.Burning {
			v.Healthy = false
		}
		v.Targets = append(v.Targets, tv)
	}
	sort.Slice(v.Targets, func(i, j int) bool {
		if v.Targets[i].Model != v.Targets[j].Model {
			return v.Targets[i].Model < v.Targets[j].Model
		}
		return v.Targets[i].Version < v.Targets[j].Version
	})
	switch {
	case !v.Healthy:
		v.State = StateFastBurn
	case sawSlow:
		v.State = StateSlowBurn
	case sawOK:
		v.State = StateOK
	}
	return v
}

// gradeTarget grades every enabled objective for t from one merge of
// its ring per horizon.
func (e *Engine) gradeTarget(t *Target) TargetVerdict {
	tv := TargetVerdict{Model: t.Model, Version: t.Version}
	long, fast := t.Window(e.cfg.Window), t.Window(e.cfg.FastWindow)
	for _, obj := range e.enabledObjectives() {
		st := e.grade(obj, long, fast)
		tv.Burning = tv.Burning || st.State == StateFastBurn
		tv.Objectives = append(tv.Objectives, st)
	}
	return tv
}

// gradeObjective grades one objective for t over both horizons.
func (e *Engine) gradeObjective(t *Target, obj string) ObjectiveStatus {
	return e.grade(obj, t.Window(e.cfg.Window), t.Window(e.cfg.FastWindow))
}

// grade grades one objective from the merged long and fast windows. The
// burn ladder: no_data below MinSamples in the long window; fast_burn
// when the fast window violates with at least MinSamples of its own (a
// burst of bad requests, not two unlucky ones); slow_burn when only the
// long window violates; ok otherwise.
func (e *Engine) grade(obj string, long, fast Window) ObjectiveStatus {
	st := ObjectiveStatus{Name: obj}
	var eval func(Window) (value float64, samples int64)
	var violated func(value float64) bool
	switch obj {
	case ObjLatencyP99:
		st.Threshold = e.cfg.LatencyP99.Seconds()
		eval = Window.LatencyP99
		violated = func(v float64) bool { return v > st.Threshold }
	case ObjErrorRate:
		st.Threshold = e.cfg.MaxErrorRate
		eval = Window.ErrorRate
		violated = func(v float64) bool { return v > st.Threshold }
	case ObjAgreement:
		st.Threshold = e.cfg.MinAgreement
		eval = Window.AgreeRate
		violated = func(v float64) bool { return v < st.Threshold }
	case ObjExitRate:
		st.Threshold = e.cfg.ExitRateMax
		st.ThresholdLow = e.cfg.ExitRateMin
		eval = Window.ExitRate
		violated = func(v float64) bool { return v < st.ThresholdLow || v > st.Threshold }
	default:
		st.State = StateNoData
		st.Value, st.FastValue = obs.NoData, obs.NoData
		return st
	}

	st.Value, st.Samples = eval(long)
	fastValue, fastSamples := eval(fast)
	st.FastValue = fastValue
	switch {
	case st.Samples < e.cfg.MinSamples || st.Value < 0:
		st.State = StateNoData
	case fastSamples >= e.cfg.MinSamples && fastValue >= 0 && violated(fastValue):
		st.State = StateFastBurn
	case violated(st.Value):
		st.State = StateSlowBurn
	default:
		st.State = StateOK
	}
	return st
}

// latencyBounds are the latency buckets (seconds) every ring slot
// counts into: obs's default layout, so a windowed p99 is estimated
// exactly like the cumulative lcrs_infer latency histograms.
var latencyBounds = obs.LatencyBuckets()

// Request is one finished inference as the edge reports it to its
// version's target.
type Request struct {
	// Latency is the end-to-end infer handler latency.
	Latency time.Duration
	// Failed marks an errored request. A failed request counts toward
	// the error rate and the cache traffic only: its latency (a fast 400
	// must not drag p99 down), agreement and exit fields are ignored.
	Failed bool
	// CacheHit / CacheMiss give the answer-cache lookup's outcome; both
	// false when no cache was consulted.
	CacheHit, CacheMiss bool
	// Judged marks a request whose telemetry carried a binary answer to
	// judge against the main branch's; Agree is the judgment.
	Judged, Agree bool
	// LocalExits / Offloaded are client exit decisions: the local exits
	// the telemetry reports and the samples this request offloaded.
	LocalExits, Offloaded int64
}

// Counts is what one ring slot holds, and what a trailing window merges
// its slots into.
type Counts struct {
	// Requests / Errors grade the error-rate objective.
	Requests, Errors int64
	// Agree / Disagree grade the binary-vs-main agreement floor
	// (label-free, from client telemetry vs the main-branch answer).
	Agree, Disagree int64
	// LocalExits / Offloaded grade the exit-rate band.
	LocalExits, Offloaded int64
	// CacheHits / CacheMisses feed the windowed cache view (not graded,
	// but the A/B judge wants it per version).
	CacheHits, CacheMisses int64
	// Latency holds the successful requests' latency bucket counts over
	// obs.LatencyBuckets, the +Inf overflow last.
	Latency []int64
}

func (c *Counts) add(o *Counts) {
	c.Requests += o.Requests
	c.Errors += o.Errors
	c.Agree += o.Agree
	c.Disagree += o.Disagree
	c.LocalExits += o.LocalExits
	c.Offloaded += o.Offloaded
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	for i, n := range o.Latency {
		c.Latency[i] += n
	}
}

// Target holds the windowed aggregates for one (model, version): a ring
// of Slots time slots, each the Counts of one slot-duration epoch, under
// one mutex. A write lands in the slot covering now, first resetting it
// when it still holds an epoch that has left the window, so rotation is
// exact — no observation is dropped or misfiled — and the ring's memory
// is fixed at creation; expiry needs no background work.
//
// Precision contract: the trailing window rounds to slot granularity. A
// query for the last D covers every slot that overlaps (now-D, now], so
// up to one slot-duration of older observations may be included.
type Target struct {
	Model   string
	Version string

	now    func() time.Time // the engine's clock
	slotNS int64
	bornNS int64 // creation time: the covered-seconds floor

	mu   sync.Mutex
	ring [Slots]slot
}

type slot struct {
	epoch int64 // slot-duration epoch the counts belong to
	Counts
}

// Observe records one finished request: one clock read and one lock.
func (t *Target) Observe(r Request) {
	e := t.now().UnixNano() / t.slotNS
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.ring[e%Slots]
	if s.epoch < e {
		// The slot last held an epoch that has left the window: recycle it.
		// (A newer epoch, under a clock stepped backwards, is folded into.)
		lat := s.Latency
		clear(lat)
		s.Counts = Counts{Latency: lat}
		s.epoch = e
	}
	c := &s.Counts
	c.Requests++
	switch {
	case r.CacheHit:
		c.CacheHits++
	case r.CacheMiss:
		c.CacheMisses++
	}
	if r.Failed {
		c.Errors++
		return
	}
	c.Latency[sort.SearchFloat64s(latencyBounds, r.Latency.Seconds())]++
	if r.Judged {
		if r.Agree {
			c.Agree++
		} else {
			c.Disagree++
		}
	}
	c.LocalExits += r.LocalExits
	c.Offloaded += r.Offloaded
}

// Window merges the slots inside the trailing d (d <= 0 or beyond the
// ring: the whole ring) into one view.
func (t *Target) Window(d time.Duration) Window {
	if window := time.Duration(t.slotNS * Slots); d <= 0 || d > window {
		d = window
	}
	now := t.now().UnixNano()
	maxE := now / t.slotNS
	minE := max((now-int64(d))/t.slotNS, maxE-Slots+1)
	w := Window{Counts: Counts{Latency: make([]int64, len(latencyBounds)+1)}}
	if start := max(minE*t.slotNS, t.bornNS); now > start {
		w.covered = time.Duration(now - start)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.ring {
		if s := &t.ring[i]; s.epoch >= minE && s.epoch <= maxE {
			w.add(&s.Counts)
		}
	}
	return w
}

// Window is a target's merged counts over one trailing horizon.
type Window struct {
	Counts
	// covered is the wall time the merged slots span, clamped to the
	// target's age — so a young target under load reports its true rate
	// instead of diluting it over an empty window.
	covered time.Duration
}

// Rate returns requests per second over the covered time (0 when none
// is covered yet).
func (w Window) Rate() float64 {
	if w.covered <= 0 {
		return 0
	}
	return float64(w.Requests) / (float64(w.covered) / float64(time.Second))
}

// LatencyP99 returns the windowed p99 latency in seconds (obs.NoData
// when no request succeeded) and the successful-request count.
func (w Window) LatencyP99() (float64, int64) {
	var n int64
	for _, c := range w.Latency {
		n += c
	}
	return obs.QuantileFromCounts(latencyBounds, w.Latency, 0.99), n
}

// ErrorRate returns the errored fraction of requests and the request
// count; obs.NoData when there were none.
func (w Window) ErrorRate() (float64, int64) {
	return ratio(w.Errors, w.Requests-w.Errors)
}

// AgreeRate returns the binary-vs-main agreement and the judged count.
func (w Window) AgreeRate() (float64, int64) { return ratio(w.Agree, w.Disagree) }

// ExitRate returns the local early-exit fraction and the decision count.
func (w Window) ExitRate() (float64, int64) { return ratio(w.LocalExits, w.Offloaded) }

// CacheHitRate returns the answer-cache hit fraction and the lookup count.
func (w Window) CacheHitRate() (float64, int64) { return ratio(w.CacheHits, w.CacheMisses) }

// ratio returns num/(num+den) with obs.NoData when the denominator is
// empty, plus the sample count.
func ratio(num, den int64) (float64, int64) {
	total := num + den
	if total <= 0 {
		return obs.NoData, 0
	}
	return float64(num) / float64(total), total
}
