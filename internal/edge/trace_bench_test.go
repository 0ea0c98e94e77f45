package edge

import (
	"bytes"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"lcrs/internal/collab"
	"lcrs/internal/exitpolicy"
	"lcrs/internal/models"
	"lcrs/internal/obs"
	"lcrs/internal/slo"
	"lcrs/internal/tensor"
)

// Tracing-overhead guard. The premise is that per-request observability
// is free next to the forward pass: a trace is seven time.Now pairs plus
// seven histogram observations (an atomic add and a CAS each), and the
// decision-telemetry layer adds two more observes, a handful of counter
// adds and one journal ring write.
// BenchmarkTracedInfer measures the full traced serving path so CI has a
// smoke number; BenchmarkTraceObserve isolates the added cost, and
// TestTracingOverheadBudget pins it under 2% of even the cheapest
// measured forward. Budgeting the isolated cost (rather than diffing two
// end-to-end runs) keeps the guard meaningful on noisy CI machines.

// BenchmarkTracedInfer drives the complete traced handler path: frame
// decode, replica checkout, forward, JSON encode, stage observation.
func BenchmarkTracedInfer(b *testing.B) {
	s, err := New()
	if err != nil {
		b.Fatal(err)
	}
	m := testModel(b)
	if _, err := s.Register("demo", m); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	g := tensor.NewRNG(41)
	shared := m.ForwardShared(g.Uniform(-1, 1, 1, 1, 28, 28), false)
	var buf bytes.Buffer
	if err := collab.WriteTensor(&buf, shared); err != nil {
		b.Fatal(err)
	}
	frame := buf.Bytes()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/infer/demo", bytes.NewReader(frame))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// traceCost measures one request's worth of observability work: the seven
// time.Now pairs the handler adds, one tau controller observation (a
// mutex-guarded windowed accumulate, the steady-state cost of
// WithTauControl), the serving observe itself — counters, per-stage
// histogram observes, decision telemetry, the SLO window maintenance a
// WithSLO server charges and the span-timeline build — and one journal
// ring write: everything the telemetry, control and SLO layers charge a
// request.
func traceCost(iters int, st *modelStats, tc *tauControl, win *slo.Target, j *journal) time.Duration {
	e := &entry{name: "bench", version: "v-bench", stats: st, win: win}
	tel := &collab.Telemetry{Entropy: 0.6, Tau: 0.3, BinaryPred: 3, LocalExits: 1}
	start := time.Now()
	for i := 0; i < iters; i++ {
		info := &reqInfo{entry: JournalEntry{ID: "bench-0123456789ab", TraceID: "bench-0123456789ab",
			Method: "POST", Path: "/v1/infer/bench", Status: 200}}
		o := &info.out
		o.journal, o.start, o.status = &info.entry, time.Now(), 200
		o.samples, o.payload, o.tel, o.cache = 1, 1024, tel, cacheMiss
		o.ans.pred, o.agree = 3, true
		o.clientLocal, o.clientEncode = 1200, 40
		for s := 0; s < numStages; s++ {
			t0 := time.Now()
			o.tr.stages[s] = time.Since(t0)
		}
		if tc != nil {
			tc.observe(tel, 1, 3)
		}
		e.observe(o)
		if j != nil {
			j.add(info.entry)
		}
	}
	return time.Since(start)
}

// benchSLOTarget builds a production-shaped SLO target for charging the
// per-request window maintenance into the trace budget.
func benchSLOTarget(tb testing.TB, model string) *slo.Target {
	eng, err := slo.New(slo.Config{
		LatencyP99: 50 * time.Millisecond, MaxErrorRate: 0.05,
		MinAgreement: 0.8, ExitRateMin: 0.2, ExitRateMax: 0.9,
	}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return eng.Target(model, "v-bench")
}

// benchTauControl builds a controller like a WithTauControl registration
// would, for charging its per-request cost into the trace budget.
func benchTauControl(tb testing.TB, reg *obs.Registry, model string) *tauControl {
	cfg, err := exitpolicy.Config{Mode: exitpolicy.ModeExitRate, Target: 0.5, AdoptClientTau: true}.Validate()
	if err != nil {
		tb.Fatal(err)
	}
	tc, err := newTauControl(reg, model, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return tc
}

// BenchmarkTraceObserve reports the isolated per-request telemetry cost.
func BenchmarkTraceObserve(b *testing.B) {
	reg := obs.NewRegistry()
	st := newModelStats(reg, "bench")
	tc := benchTauControl(b, reg, "bench")
	win := benchSLOTarget(b, "bench")
	b.ReportAllocs()
	b.ResetTimer()
	traceCost(b.N, st, tc, win, newJournal(DefaultJournalSize))
}

// TestTracingOverheadBudget is the <2% guard: per-request tracing cost
// must be under 2% of the forward stage it decorates. The forward uses a
// production-width model (the shared fixtures shrink WidthScale to keep
// the suite fast; tracing cost does not scale with the model, so judging
// it against a toy forward would overstate the overhead). Both sides are
// measured on this host, so the bound tracks the hardware the test runs
// on; tracing measures ~1.5% on a 2-vCPU Xeon. Both are also measured the
// same way — the fastest of several interleaved (forward batch, trace
// batch) pairs — so a burst of load from another process slows one pair,
// not one side of the ratio.
func TestTracingOverheadBudget(t *testing.T) {
	m, err := models.Build("lenet", models.Config{
		Classes: 10, InC: 1, InH: 28, InW: 28, WidthScale: 0.5, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := tensor.NewRNG(42)
	shared := m.ForwardShared(g.Uniform(-1, 1, 1, 1, 28, 28), false)
	r := m.CloneForInference()
	r.ForwardMainRest(shared, false) // warm scratch buffers

	reg := obs.NewRegistry()
	st := newModelStats(reg, "budget")
	tc := benchTauControl(t, reg, "budget")
	win := benchSLOTarget(t, "budget")
	j := newJournal(DefaultJournalSize)
	const pairs, forwards, traces = 20, 10, 500
	perForward, perTrace := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for p := 0; p < pairs; p++ {
		start := time.Now()
		for i := 0; i < forwards; i++ {
			r.ForwardMainRest(shared, false)
		}
		perForward = min(perForward, time.Since(start)/forwards)
		perTrace = min(perTrace, traceCost(traces, st, tc, win, j)/traces)
	}

	if st.stage[stageForward].Count() != pairs*traces {
		t.Fatalf("observed %d traces, want %d", st.stage[stageForward].Count(), pairs*traces)
	}
	if perTrace*50 > perForward {
		t.Fatalf("tracing %v per request exceeds 2%% of a %v forward", perTrace, perForward)
	}
}
