// Package obs provides the serving stack's observability primitives:
// lock-cheap atomic counters and fixed-bucket latency histograms collected
// in a registry that renders the Prometheus text exposition format
// (version 0.0.4). The edge server threads a per-request trace through
// its handler stages and observes each stage into histograms from this
// package; GET /metrics on the edge server serves the registry.
//
// Metrics are get-or-create: asking the registry for a (name, labels)
// pair twice returns the same instance, so hot paths resolve their
// handles once at registration time and then touch only atomics. No
// metric is ever unregistered; a registry lives as long as its server.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative to keep Prometheus semantics; this
// is not enforced on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value (float64 bits in an atomic).
type Gauge struct {
	v atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v.Store(math.Float64bits(v)) }

// Add increments the gauge by d (CAS loop, safe under concurrency).
func (g *Gauge) Add(d float64) {
	for {
		old := g.v.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.v.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

// Histogram is a fixed-bucket histogram: observations land in the first
// bucket whose inclusive upper bound is >= the value, or in the implicit
// +Inf overflow bucket. Buckets, count and sum are all atomics, so
// Observe never takes a lock and concurrent snapshots are per-field
// consistent (the usual Prometheus scrape semantics).
type Histogram struct {
	bounds  []float64 // strictly increasing inclusive upper bounds
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing: %v", bounds))
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds, the Prometheus base unit.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Buckets snapshots the bucket layout: the inclusive upper bounds and the
// per-bucket (non-cumulative) observation counts, with the implicit +Inf
// overflow bucket as the final count entry (len(counts) == len(bounds)+1).
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	counts = make([]int64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return h.bounds, counts
}

// NoData is returned by quantile estimators when there are no
// observations to estimate from. It is a plain finite sentinel (never
// NaN, so it survives JSON encoding and float comparisons) and is
// negative, which no latency/entropy histogram in this codebase can
// produce, so `q < 0` is the complete "no data" test. SLO evaluation
// depends on the distinction: an empty window means "no traffic", not
// "p99 = 0s", and must park the objective in its no_data state instead
// of reporting a vacuously healthy latency.
const NoData = -1

// Quantile estimates the q-quantile (q in [0,1]) from the bucket counts
// with linear interpolation inside the holding bucket — the usual
// Prometheus histogram_quantile estimate, so dashboards and the JSON
// views agree. Edge cases, all deterministic:
//   - Empty histogram: returns NoData (never NaN or a misleading 0).
//   - Single populated bucket: every quantile interpolates linearly
//     across that bucket's width (from the previous bound, or 0 for the
//     first bucket), so q=0 gives the bucket's lower edge and q=1 its
//     upper bound — the estimate never leaves the bucket that holds all
//     the data.
//   - Observations beyond the last bound saturate to it.
func (h *Histogram) Quantile(q float64) float64 {
	_, counts := h.Buckets()
	return QuantileFromCounts(h.bounds, counts, q)
}

// QuantileFromCounts is the estimator behind Histogram.Quantile, shared
// with the windowed quantiles internal/slo merges from its rings: counts
// has one entry per bound plus the +Inf overflow bucket last. Returns
// NoData when counts are all zero.
func QuantileFromCounts(bounds []float64, counts []int64, q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return NoData
	}
	rank := float64(q * float64(total))
	var cum int64
	for i, c := range counts[:len(counts)-1] {
		cum += c
		if float64(cum) >= rank {
			hi := bounds[i]
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			} else if hi < 0 {
				lo = hi // negative first bound: no interpolation anchor
			}
			if c == 0 {
				return hi
			}
			within := rank - float64(cum-c)
			return lo + (hi-lo)*within/float64(c)
		}
	}
	// Rank lands in the +Inf overflow bucket: saturate to the last bound.
	return bounds[len(bounds)-1]
}

// LatencyBuckets returns the default latency bucket bounds in seconds:
// roughly logarithmic from 50µs to 10s, sized for the edge serving path
// where a binary-branch forward is tens of microseconds and a saturated
// queue can hold a request for seconds.
func LatencyBuckets() []float64 {
	return []float64{
		0.00005, 0.0001, 0.00025, 0.0005,
		0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
		0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// Label is one metric dimension. Labels are ordered as given; callers
// should use a consistent order per metric name so series line up.
type Label struct {
	Key, Value string
}

// metricKind discriminates exposition rendering.
type metricKind int

const (
	kindCounter metricKind = iota
	kindHistogram
	kindGauge
	kindGaugeFunc
)

// series is one labelled instance of a family.
type series struct {
	labels []Label
	c      *Counter
	h      *Histogram
	g      *Gauge
	fn     func() float64 // kindGaugeFunc: evaluated at scrape time
}

// family groups every series of one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	bounds []float64 // histogram families only
	series map[string]*series
}

// Registry collects metric families and renders them in the Prometheus
// text format. Metric creation takes a lock; using a metric never does.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Counter returns the counter for (name, labels), creating it on first
// use. help is recorded on first creation of the family. The name and
// label keys must be valid Prometheus identifiers; violations panic, as
// they are programming errors, not runtime conditions.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, kindCounter, nil, labels)
	return s.c
}

// Histogram returns the histogram for (name, labels) with the given
// inclusive upper bounds, creating it on first use. Every series of one
// family shares the family's bounds (the bounds of the first creation
// win; asking again with different bounds panics).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.lookup(name, help, kindHistogram, bounds, labels)
	return s.h
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, kindGauge, nil, labels)
	return s.g
}

// GaugeFunc registers fn as the value source for (name, labels): it is
// called once per scrape, under no lock, so it must be cheap and
// goroutine-safe. Registering the same (name, labels) twice keeps the
// first function. Used for process-health readings (goroutines, heap)
// that are snapshots of runtime state rather than accumulated values.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if fn == nil {
		panic(fmt.Sprintf("obs: nil GaugeFunc for %q", name))
	}
	r.lookupFn(name, help, fn, labels)
}

func (r *Registry) lookup(name, help string, kind metricKind, bounds []float64, labels []Label) *series {
	return r.lookupKind(name, help, kind, bounds, nil, labels)
}

func (r *Registry) lookupFn(name, help string, fn func() float64, labels []Label) {
	r.lookupKind(name, help, kindGaugeFunc, nil, fn, labels)
}

func (r *Registry) lookupKind(name, help string, kind metricKind, bounds []float64, fn func() float64, labels []Label) *series {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Key))
		}
	}
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		if kind == kindHistogram {
			f.bounds = append([]float64(nil), bounds...)
		}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered with conflicting types", name))
	}
	if kind == kindHistogram && !equalBounds(f.bounds, bounds) {
		panic(fmt.Sprintf("obs: histogram %q registered with conflicting bounds", name))
	}
	s := f.series[key]
	if s == nil {
		s = &series{labels: append([]Label(nil), labels...)}
		switch kind {
		case kindCounter:
			s.c = &Counter{}
		case kindHistogram:
			s.h = newHistogram(f.bounds)
		case kindGauge:
			s.g = &Gauge{}
		case kindGaugeFunc:
			s.fn = fn
		}
		f.series[key] = s
	}
	return s
}

// WritePrometheus renders every family in the text exposition format,
// families sorted by name and series by label set, so output is stable
// for golden tests and diffing between scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind.String())
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, renderLabels(s.labels), s.c.Value())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, renderLabels(s.labels), formatFloat(s.g.Value()))
			case kindGaugeFunc:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, renderLabels(s.labels), formatFloat(s.fn()))
			case kindHistogram:
				bounds, counts := s.h.Buckets()
				var cum int64
				for i, le := range bounds {
					cum += counts[i]
					fmt.Fprintf(&b, "%s_bucket%s %d\n",
						f.name, renderLabels(append(s.labels, Label{"le", formatFloat(le)})), cum)
				}
				cum += counts[len(counts)-1]
				fmt.Fprintf(&b, "%s_bucket%s %d\n",
					f.name, renderLabels(append(s.labels, Label{"le", "+Inf"})), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, renderLabels(s.labels), formatFloat(s.h.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, renderLabels(s.labels), s.h.Count())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (k metricKind) String() string {
	switch k {
	case kindHistogram:
		return "histogram"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	default:
		return "counter"
	}
}

// labelKey serializes labels into a map key (and sort key) for series.
func labelKey(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

// renderLabels formats {k1="v1",k2="v2"} with escaped values, or the
// empty string when there are no labels.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// formatFloat renders a float the way Prometheus expects: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
