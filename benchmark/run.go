package main

import (
	"fmt"
	"runtime"
	"time"

	"lcrs/internal/edge"
)

// metricOut is one reported metric. A timing metric's value is its
// quietest round (see README, noise policy); the rounds it was taken from,
// their median and quartile distance ride along so a reader can judge it.
type metricOut struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds,omitempty"`
	Median float64   `json:"median,omitempty"`
	IQR    float64   `json:"iqr,omitempty"`
	N      int       `json:"n,omitempty"` // latency samples behind the value
}

// workloadOut is one workload's section of the results file.
type workloadOut struct {
	Name      string `json:"name"`
	Why       string `json:"why"`
	Rounds    int    `json:"rounds"`
	Attempted int    `json:"attempted"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`

	EndToEnd map[string]metricOut `json:"end_to_end"`
	PerLayer map[string]metricOut `json:"per_layer,omitempty"`

	ReferenceS float64   `json:"reference_s"`
	CalibMs    []float64 `json:"calib_ms"`
	// TailSamples is how many latency samples the p90/p99 were read from.
	TailSamples int `json:"tail_samples"`

	TracedValid    bool      `json:"traced_valid,omitempty"`
	TracedMismatch string    `json:"traced_mismatch,omitempty"`
	SelfTime       []selfRow `json:"self_time,omitempty"`
}

// wlRun is one workload being measured.
type wlRun struct {
	e      *env
	setups []float64 // seconds, one per set-up repetition
	loads  []float64 // ms, one per set-up repetition
	recs   []*roundRec
	after  edge.ModelStats // server counters when the untraced rounds ended
}

// prepare sets a workload up reps times, keeps the last, and computes its
// reference answers. setup_s is the median repetition and load_ms the
// fastest load, so one slow disk or scheduler moment does not set either.
func prepare(def *workloadDef, opt options, reps int) (*wlRun, error) {
	w := &wlRun{}
	for i := 0; i < reps; i++ {
		if w.e != nil {
			w.e.close()
			w.e = nil
			runtime.GC()
		}
		e, err := setup(def, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		w.e = e
		w.setups = append(w.setups, e.setupS)
		w.loads = append(w.loads, e.loadMs)
	}
	if err := w.e.reference(); err != nil {
		w.e.close()
		return nil, fmt.Errorf("%s: reference: %w", def.name, err)
	}
	w.e.base = w.e.stats()
	// Set-up and reference garbage is collected now, not during round 1.
	runtime.GC()
	return w, nil
}

// round measures the next round; a pass that starts over first gets its
// cold state back.
func (w *wlRun) round() error {
	i := len(w.recs) % len(w.e.rounds)
	if i == 0 && len(w.recs) > 0 {
		if err := w.e.resetPass(); err != nil {
			return fmt.Errorf("%s: %w", w.e.def.name, err)
		}
	}
	ops := w.e.rounds[i]
	w.recs = append(w.recs, measureRound(len(ops), func(rec *roundRec) { w.e.runRound(ops, rec) }))
	return nil
}

// runFor measures whole passes for about d, at least minRounds rounds.
func (w *wlRun) runFor(d time.Duration, minRounds int) error {
	start := time.Now()
	for {
		passStart := time.Now()
		for range w.e.rounds {
			if err := w.round(); err != nil {
				return err
			}
		}
		// Stop at the pass boundary nearest to d.
		if len(w.recs) >= minRounds && time.Since(start)+time.Since(passStart)/2 >= d {
			return nil
		}
	}
}

// finish closes the untraced measurement: the server's counters are read
// once more.
func (w *wlRun) finish() { w.after = w.e.stats() }

// counts over all untraced rounds.
type tally struct {
	ops, failed           int
	exits, hits, offloads int
	wireBytes             int64
	alloc                 uint64
	gc                    uint32
	heapPeak              uint64
	all, hitLat           []time.Duration // latency samples after warm-up
}

func (w *wlRun) tally() tally {
	var t tally
	for _, r := range w.recs {
		t.ops += r.ops
		t.failed += r.failed
		t.alloc += r.alloc
		t.gc += r.gc
		if r.heapEnd > t.heapPeak {
			t.heapPeak = r.heapEnd
		}
		skip := warmup(r.ops)
		for i, g := range r.got {
			switch g.kind {
			case kindExit:
				t.exits++
			case kindHit:
				t.hits++
				if i >= skip {
					t.hitLat = append(t.hitLat, r.lat[i])
				}
			case kindOffload:
				t.offloads++
				t.wireBytes += int64(g.payload)
			}
		}
		t.all = append(t.all, r.lat[skip:]...)
	}
	return t
}

// calib is the calibration reading of each round, ms.
func (w *wlRun) calib() []float64 {
	return w.perRound(func(r *roundRec) float64 { return r.calibMs })
}

// perRound collects one value per round.
func (w *wlRun) perRound(f func(*roundRec) float64) []float64 {
	v := make([]float64, len(w.recs))
	for i, r := range w.recs {
		v[i] = f(r)
	}
	return v
}

// roundMetric reports a timing by its quietest round.
func roundMetric(unit string, rounds []float64, lowerIsBetter bool, n int) metricOut {
	return metricOut{Value: best(rounds, lowerIsBetter), Unit: unit, Rounds: rounds,
		Median: median(rounds), IQR: iqr(rounds), N: n}
}

// edgeForwards is how many answers cost the edge a forward.
func (w *wlRun) edgeForwards() int64 {
	a, b := w.after, w.e.base
	return (a.InferRequests - b.InferRequests) - (a.InferErrors - b.InferErrors) - (a.CacheHits - b.CacheHits)
}

// endToEnd computes the nine end-to-end metrics.
func (w *wlRun) endToEnd(t tally) map[string]metricOut {
	ops := float64(t.ops)
	samples := len(t.all)
	return map[string]metricOut{
		"setup_s":                 {Value: median(w.setups), Unit: "s", Rounds: w.setups, Median: median(w.setups), IQR: iqr(w.setups)},
		"load_ms":                 roundMetric("ms", w.loads, true, 0),
		"recog_p50_ms":            roundMetric("ms", w.perRound((*roundRec).p50Ms), true, samples),
		"recog_per_s":             roundMetric("1/s", w.perRound((*roundRec).perSecond), false, samples),
		"cpu_ms_per_recog":        roundMetric("ms", w.perRound((*roundRec).cpuMsPerOp), true, samples),
		"alloc_kb_per_recog":      {Value: float64(t.alloc) / 1024 / ops, Unit: "KiB"},
		"wire_bytes_per_recog":    {Value: float64(t.wireBytes) / ops, Unit: "B"},
		"edge_forwards_per_recog": {Value: float64(w.edgeForwards()) / ops, Unit: "ratio"},
		"fail_share":              {Value: float64(t.failed) / ops, Unit: "ratio"},
	}
}

// countMetrics are the per-layer metrics that are counts of the untraced
// run: exact, and cheap enough to report after every run.
func (w *wlRun) countMetrics(t tally) map[string]float64 {
	ops := float64(t.ops)
	a, b := w.after, w.e.base
	v := map[string]float64{
		"exitpolicy.exit_share":          float64(t.exits) / ops,
		"exitpolicy.tau":                 w.e.tau,
		"webclient.offload_share":        float64(t.offloads) / ops,
		"webclient.cache_hit_share":      float64(t.hits) / ops,
		"webclient.cache_hit_us":         quantileUs(t.hitLat, 0.5),
		"webclient.recognize_p90_ms":     quantileMs(t.all, 0.90),
		"webclient.recognize_p99_ms":     quantileMs(t.all, 0.99),
		"edge.requests":                  float64(a.InferRequests - b.InferRequests),
		"edge.errors":                    float64(a.InferErrors - b.InferErrors),
		"host.calib_ms":                  median(w.calib()),
		"host.nproc":                     float64(runtime.NumCPU()),
		"process.gc_cycles_per_1k_recog": 1000 * float64(t.gc) / ops,
		"process.heap_inuse_peak_mb":     float64(t.heapPeak) / (1 << 20),
	}
	if w.e.def.burst {
		// No web client runs in edge_burst; its ops are raw requests.
		v["webclient.offload_share"] = 0
	}
	if t.offloads > 0 {
		v["collab.frame_bytes"] = float64(t.wireBytes) / float64(t.offloads)
	}
	if n := a.Batches - b.Batches; n > 0 {
		v["edge.mean_batch_size"] = float64(a.BatchedRequests-b.BatchedRequests) / float64(n)
	}
	if n := a.InferRequests - b.InferRequests; n > 0 {
		v["edge.cache_hit_share"] = float64(a.CacheHits-b.CacheHits) / float64(n)
	}
	return v
}

// tracedMetrics are the per-layer metrics read from the traced pass's
// spans. untracedP50 is the untraced rounds' median p50: the traced pass is
// one ordinary round, not a quietest one.
func tracedMetrics(e *env, rows []selfRow, tp *tracedPass, untracedP50 float64) map[string]float64 {
	v := map[string]float64{
		"nn.shared_us":         spanP50Us(rows, spanShared),
		"binary.branch_us":     spanP50Us(rows, spanBranch),
		"exitpolicy.decide_us": spanP50Us(rows, spanDecide),
		"collab.key_us":        spanP50Us(rows, spanKey),
		"collab.encode_us":     spanP50Us(rows, spanEncode),
		"collab.decode_us":     spanP50Us(rows, spanDecode),
		"nn.mainrest_us":       spanP50Us(rows, spanMainRest),
		"edge.roundtrip_us":    spanP50Us(rows, spanRoundtrip),
	}
	for _, name := range echoSpans {
		v[name+"_us"] = spanP50Us(rows, name)
	}
	// Per-op remainders: the root's self time, and the round trip's.
	self := selfTimes(tp.spans)
	var rootSelf, rtSelf []time.Duration
	for _, s := range tp.spans {
		switch s.Name {
		case spanRoot:
			rootSelf = append(rootSelf, self[s.ID])
		case spanRoundtrip:
			rtSelf = append(rtSelf, self[s.ID])
		}
	}
	if !e.def.burst {
		v["webclient.self_us"] = quantileUs(rootSelf, 0.5)
	}
	v["edge.http_overhead_us"] = quantileUs(rtSelf, 0.5)
	if enc := v["collab.encode_us"]; enc > 0 {
		v["collab.encode_mb_per_s"] = float64(e.ref.SharedOutBytes()) / enc // bytes per µs = MB/s
	}
	if untracedP50 > 0 {
		v["trace.overhead_share"] = tp.rootP50Ms/untracedP50 - 1
	}
	return v
}

// section assembles a workload's part of the results file. tp and layer are
// nil for a run with tracing off. A metric that does not apply to the
// workload reads 0; a value under a name the catalogue does not list is a
// bug in this program.
func (w *wlRun) section(tp *tracedPass, layer map[string]float64) workloadOut {
	t := w.tally()
	e2e := w.endToEnd(t)
	out := workloadOut{
		Name: w.e.def.name, Why: w.e.def.why, Rounds: len(w.recs),
		Attempted: t.ops, Succeeded: t.ops - t.failed, Failed: t.failed,
		EndToEnd:    e2e,
		ReferenceS:  w.e.referenceS,
		CalibMs:     w.calib(),
		TailSamples: len(t.all),
	}
	if tp == nil {
		return out
	}
	values := w.countMetrics(t)
	rows := selfTable(tp.spans)
	for k, x := range tracedMetrics(w.e, rows, tp, e2e["recog_p50_ms"].Median) {
		values[k] = x
	}
	for k, x := range layer {
		values[k] = x
	}
	out.PerLayer = map[string]metricOut{}
	for _, d := range perLayerDefs {
		out.PerLayer[d.name] = metricOut{Value: values[d.name], Unit: d.unit}
		delete(values, d.name)
	}
	for k := range values {
		panic("benchmark: metric " + k + " is not in the catalogue")
	}
	out.TracedValid, out.TracedMismatch, out.SelfTime = tp.valid, tp.mismatch, rows
	return out
}
