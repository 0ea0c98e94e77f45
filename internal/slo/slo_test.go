package slo

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcrs/internal/obs"
)

type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(5000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func testConfig() Config {
	return Config{
		Window:       24 * time.Second,
		FastWindow:   8 * time.Second,
		MinSamples:   6,
		LatencyP99:   100 * time.Millisecond,
		MaxErrorRate: 0.1,
		MinAgreement: 0.8,
		ExitRateMin:  0.2,
		ExitRateMax:  0.8,
	}
}

// served is one successful 10ms request whose telemetry judged the
// binary answer (agree) and reported one exit decision (local or
// offloaded).
func served(agree, local bool) Request {
	r := Request{Latency: 10 * time.Millisecond, Judged: true, Agree: agree, Offloaded: 1}
	if local {
		r.LocalExits, r.Offloaded = 1, 0
	}
	return r
}

func TestConfigValidate(t *testing.T) {
	var c Config
	if err := c.Validate(); err != nil {
		t.Fatalf("zero config must validate with defaults: %v", err)
	}
	if c.Window != 60*time.Second || c.FastWindow != 10*time.Second || c.MinSamples != 20 {
		t.Fatalf("defaults not filled: %+v", c)
	}
	bad := []Config{
		{Window: 10 * time.Second, FastWindow: 20 * time.Second},
		{MinAgreement: 1.5},
		{MaxErrorRate: -0.5},
		{ExitRateMin: 0.9, ExitRateMax: 0.5},
		{Window: 7 * time.Second, FastWindow: time.Second}, // not divisible into Slots
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d validated: %+v", i, c)
		}
	}
}

func TestNoDataState(t *testing.T) {
	e, err := New(testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	e.SetClock(clk.Now)
	tgt := e.Target("demo", "v1")

	v := e.Evaluate()
	if v.State != StateNoData || !v.Healthy {
		t.Fatalf("empty engine verdict = %q healthy=%v, want no_data healthy", v.State, v.Healthy)
	}
	for _, o := range v.Targets[0].Objectives {
		if o.State != StateNoData {
			t.Fatalf("objective %s state = %q with no traffic, want no_data", o.Name, o.State)
		}
		if o.Value != obs.NoData {
			t.Fatalf("objective %s value = %v with no traffic, want NoData sentinel", o.Name, o.Value)
		}
	}

	// Below MinSamples stays no_data even with violating observations.
	for i := 0; i < 5; i++ {
		tgt.Observe(Request{Latency: time.Second}) // way over the 100ms p99
	}
	if st := e.gradeObjective(tgt, ObjLatencyP99); st.State != StateNoData {
		t.Fatalf("latency state below MinSamples = %q, want no_data", st.State)
	}
	tgt.Observe(Request{Latency: time.Second}) // 6th sample crosses MinSamples
	if st := e.gradeObjective(tgt, ObjLatencyP99); st.State != StateFastBurn {
		t.Fatalf("latency state at MinSamples with 1s observes = %q, want fast_burn", st.State)
	}
}

func TestBurnLadder(t *testing.T) {
	e, err := New(testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	e.SetClock(clk.Now)
	tgt := e.Target("demo", "v1")

	// Healthy baseline: fast requests, good agreement, mid-band exits.
	for i := 0; i < 20; i++ {
		tgt.Observe(served(true, i%2 == 0))
		clk.Advance(100 * time.Millisecond)
	}
	v := e.Evaluate()
	if v.State != StateOK || !v.Healthy {
		t.Fatalf("healthy workload verdict = %q healthy=%v, want ok", v.State, v.Healthy)
	}

	// Degrade agreement hard and long enough (6s of bad at 10/s) that
	// after recovery starts, the bad burst leaves the 8s fast window
	// well before the 24s long window forgives it — the slow_burn gap.
	for i := 0; i < 60; i++ {
		tgt.Observe(served(false, i%2 == 0))
		clk.Advance(100 * time.Millisecond)
	}
	st := e.gradeObjective(tgt, ObjAgreement)
	if st.State != StateFastBurn {
		t.Fatalf("agreement after bad burst = %q (value=%v fast=%v), want fast_burn",
			st.State, st.Value, st.FastValue)
	}
	v = e.Evaluate()
	if v.Healthy || v.State != StateFastBurn {
		t.Fatalf("burning verdict = %q healthy=%v, want fast_burn unhealthy", v.State, v.Healthy)
	}
	if !v.Targets[0].Burning {
		t.Fatal("target not marked burning")
	}

	// Recovery: good traffic again. The fast window clears first
	// (slow_burn while the long window still violates), then ok.
	sawSlow := false
	for i := 0; i < 300; i++ {
		tgt.Observe(served(true, i%2 == 0))
		clk.Advance(100 * time.Millisecond)
		if e.gradeObjective(tgt, ObjAgreement).State == StateSlowBurn {
			sawSlow = true
		}
	}
	if st := e.gradeObjective(tgt, ObjAgreement); st.State != StateOK {
		t.Fatalf("agreement after recovery = %q, want ok", st.State)
	}
	if !sawSlow {
		t.Fatal("recovery never passed through slow_burn (fast window clears before long)")
	}
	if v := e.Evaluate(); !v.Healthy {
		t.Fatal("verdict still unhealthy after recovery")
	}
}

func TestExitRateBand(t *testing.T) {
	e, err := New(testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	e.SetClock(clk.Now)
	tgt := e.Target("demo", "v1")

	// Exit rate pinned at 0: below the band floor → burn (edge flooded).
	for i := 0; i < 30; i++ {
		tgt.Observe(Request{Offloaded: 1})
		clk.Advance(100 * time.Millisecond)
	}
	st := e.gradeObjective(tgt, ObjExitRate)
	if st.State != StateFastBurn {
		t.Fatalf("all-offload exit state = %q (value=%v), want fast_burn below band floor", st.State, st.Value)
	}
	if st.ThresholdLow != 0.2 || st.Threshold != 0.8 {
		t.Fatalf("band thresholds = [%v,%v], want [0.2,0.8]", st.ThresholdLow, st.Threshold)
	}
}

func TestErrorRateObjective(t *testing.T) {
	e, err := New(testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	e.SetClock(clk.Now)
	tgt := e.Target("demo", "v1")

	for i := 0; i < 30; i++ {
		tgt.Observe(Request{Latency: 10 * time.Millisecond, Failed: i%2 == 0}) // 50% errors
		clk.Advance(100 * time.Millisecond)
	}
	if st := e.gradeObjective(tgt, ObjErrorRate); st.State != StateFastBurn {
		t.Fatalf("50%% errors state = %q, want fast_burn over the 10%% ceiling", st.State)
	}
	// Error latencies must not enter the latency histogram: all requests
	// failed fast, the successful ones were 10ms.
	if st := e.gradeObjective(tgt, ObjLatencyP99); st.State != StateOK {
		t.Fatalf("latency state = %q (value=%v), want ok — error latencies excluded", st.State, st.Value)
	}
}

// Two targets on the same engine stay independent — the per-version A/B
// surface the registry wires up.
func TestPerVersionIsolation(t *testing.T) {
	e, err := New(testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	e.SetClock(clk.Now)
	a := e.Target("demo", "v1")
	b := e.Target("demo", "v2")
	if a == b {
		t.Fatal("distinct versions must get distinct targets")
	}
	if again := e.Target("demo", "v1"); again != a {
		t.Fatal("same version must get the same target")
	}

	for i := 0; i < 30; i++ {
		a.Observe(Request{Judged: true, Agree: true})
		b.Observe(Request{Judged: true, Agree: false})
		clk.Advance(100 * time.Millisecond)
	}
	if st := e.gradeObjective(a, ObjAgreement); st.State != StateOK {
		t.Fatalf("v1 agreement = %q, want ok", st.State)
	}
	if st := e.gradeObjective(b, ObjAgreement); st.State != StateFastBurn {
		t.Fatalf("v2 agreement = %q, want fast_burn", st.State)
	}
	v := e.Evaluate()
	if len(v.Targets) != 2 {
		t.Fatalf("verdict targets = %d, want 2", len(v.Targets))
	}
	if v.Targets[0].Version != "v1" || v.Targets[1].Version != "v2" {
		t.Fatalf("verdict not sorted by version: %+v", v.Targets)
	}
	if v.Targets[0].Burning || !v.Targets[1].Burning {
		t.Fatalf("burning flags = %v/%v, want v2 only",
			v.Targets[0].Burning, v.Targets[1].Burning)
	}
}

// The lcrs_slo_* gauges are evaluated at scrape time by the same
// grading code Evaluate uses, so the exposition must agree with the
// verdict taken at the same instant.
func TestGaugesReconcileWithVerdict(t *testing.T) {
	reg := obs.NewRegistry()
	e, err := New(testConfig(), reg)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	e.SetClock(clk.Now)
	tgt := e.Target("demo", "v1")
	for i := 0; i < 30; i++ {
		r := served(false, true) // burn the agreement floor
		r.CacheHit, r.CacheMiss = i%2 == 0, i%2 != 0
		tgt.Observe(r)
		clk.Advance(100 * time.Millisecond)
	}

	v := e.Evaluate()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lcrs_slo_state{model="demo",version="v1",objective="agreement"} 3`,
		`lcrs_slo_state{model="demo",version="v1",objective="latency_p99"} 1`,
		`lcrs_slo_burning{model="demo",version="v1"} 1`,
		`lcrs_window_agree_rate{model="demo",version="v1"} 0`,
		`lcrs_window_exit_rate{model="demo",version="v1"} 1`,
		`lcrs_window_cache_hit_rate{model="demo",version="v1"} 0.5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if v.Healthy {
		t.Fatal("verdict healthy while gauges report burning")
	}
	// Exit rate all-local = 1.0 is above the band max: also burning.
	for _, o := range v.Targets[0].Objectives {
		if o.Name == ObjExitRate && o.State != StateFastBurn {
			t.Fatalf("exit_rate = %q, want fast_burn at rate 1.0 over band max", o.State)
		}
	}
}

// Windows decay: a burning target with no fresh traffic returns to
// no_data (not ok, not stuck burning) once the window drains.
func TestBurnDecaysToNoData(t *testing.T) {
	e, err := New(testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	e.SetClock(clk.Now)
	tgt := e.Target("demo", "v1")
	for i := 0; i < 30; i++ {
		tgt.Observe(Request{Judged: true, Agree: false})
	}
	if st := e.gradeObjective(tgt, ObjAgreement); st.State != StateFastBurn {
		t.Fatalf("setup: state = %q, want fast_burn", st.State)
	}
	clk.Advance(25 * time.Second) // past the 24s window
	if st := e.gradeObjective(tgt, ObjAgreement); st.State != StateNoData {
		t.Fatalf("state after window drained = %q, want no_data", st.State)
	}
	if v := e.Evaluate(); !v.Healthy {
		t.Fatal("drained engine must be healthy (no_data is not a 503)")
	}
}

// ringTarget returns a target on a 12s window (1s slots) read through
// clk, created at clk's current time.
func ringTarget(t *testing.T, clk *fakeClock) *Target {
	t.Helper()
	e, err := New(Config{Window: Slots * time.Second, FastWindow: time.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SetClock(clk.Now)
	return e.Target("demo", "v1")
}

func observeN(tgt *Target, n int, r Request) {
	for i := 0; i < n; i++ {
		tgt.Observe(r)
	}
}

func TestRingRotation(t *testing.T) {
	clk := newFakeClock()
	tgt := ringTarget(t, clk)

	// 3 requests now, 2 requests 4s later.
	observeN(tgt, 3, Request{})
	clk.Advance(4 * time.Second)
	observeN(tgt, 2, Request{})

	if got := tgt.Window(0).Requests; got != 5 {
		t.Fatalf("Requests = %d, want 5", got)
	}
	if got := tgt.Window(2 * time.Second).Requests; got != 2 {
		t.Fatalf("trailing 2s Requests = %d, want 2 (only the recent burst)", got)
	}
	// The first burst's slot leaves once it is a full window (12s) old.
	clk.Advance(8 * time.Second)
	if got := tgt.Window(0).Requests; got != 2 {
		t.Fatalf("Requests after first burst expired = %d, want 2", got)
	}
	clk.Advance(Slots * time.Second)
	if got := tgt.Window(0).Requests; got != 0 {
		t.Fatalf("Requests after full expiry = %d, want 0", got)
	}
}

// An observation landing exactly on a slot edge belongs to the new slot
// and survives the full window length from that edge, then leaves with
// its whole slot.
func TestRingRotationBoundary(t *testing.T) {
	clk := newFakeClock()
	tgt := ringTarget(t, clk)
	if clk.Now().UnixNano()%int64(time.Second) != 0 {
		t.Fatal("test setup: not on a slot boundary")
	}
	tgt.Observe(Request{})
	clk.Advance(Slots*time.Second - time.Millisecond)
	if got := tgt.Window(0).Requests; got != 1 {
		t.Fatalf("Requests just inside the window = %d, want 1", got)
	}
	clk.Advance(time.Millisecond)
	if got := tgt.Window(0).Requests; got != 0 {
		t.Fatalf("Requests at the window edge = %d, want 0", got)
	}
}

// Ring slots are recycled in place: an epoch landing on the slot of an
// expired one must reset every count, not accumulate into stale data.
func TestRingSlotRecycle(t *testing.T) {
	clk := newFakeClock()
	tgt := ringTarget(t, clk)
	tgt.Observe(Request{Failed: true, CacheHit: true})
	tgt.Observe(Request{Latency: 3 * time.Second, LocalExits: 100, Judged: true})
	clk.Advance(Slots * time.Second) // the same slot, one ring later
	tgt.Observe(Request{Offloaded: 1})
	w := tgt.Window(0)
	_, latencies := w.LatencyP99()
	if w.Requests != 1 || w.Errors != 0 || w.CacheHits != 0 || w.LocalExits != 0 ||
		w.Disagree != 0 || w.Offloaded != 1 || latencies != 1 {
		t.Fatalf("recycled slot = %+v, want only the new request", w.Counts)
	}
}

func TestRingCoveredRate(t *testing.T) {
	clk := newFakeClock()
	tgt := ringTarget(t, clk)

	// 20 requests over 2s on a target only 2s old: the rate divisor is the
	// covered wall time, not the full 12s window — a young target under
	// load reports its true rate.
	observeN(tgt, 10, Request{})
	clk.Advance(2 * time.Second)
	observeN(tgt, 10, Request{})
	if rate := tgt.Window(0).Rate(); rate != 10 {
		t.Fatalf("young-target Rate = %v, want 10/s (covered-time divisor)", rate)
	}

	// Once the target is older than the window, the divisor is the time
	// the included slots span: 11s when now sits on a slot edge, 11.5s
	// half a slot later (slot-granular coverage).
	clk.Advance(2 * Slots * time.Second)
	observeN(tgt, 33, Request{})
	if rate := tgt.Window(0).Rate(); rate != 3 {
		t.Fatalf("steady-state Rate = %v, want 3/s (33 requests over 11s)", rate)
	}
	clk.Advance(500 * time.Millisecond)
	if rate := tgt.Window(0).Rate(); math.Abs(rate-33/11.5) > 1e-12 {
		t.Fatalf("mid-slot Rate = %v, want %v (33 requests over 11.5s)", rate, 33/11.5)
	}
}

// The windowed p99 is the cumulative histogram's estimate over the
// trailing slots: same buckets, same interpolation, same NoData.
func TestRingTrailingQuantile(t *testing.T) {
	clk := newFakeClock()
	tgt := ringTarget(t, clk)
	if p, n := tgt.Window(0).LatencyP99(); p != obs.NoData || n != 0 {
		t.Fatalf("empty window p99 = %v over %d, want NoData over 0", p, n)
	}

	// Old slow requests, then fast recent ones: the trailing window must
	// forget the slow phase once it expires.
	slow, fast := 3500*time.Millisecond, 400*time.Millisecond
	hist := obs.NewRegistry().Histogram("lat", "", obs.LatencyBuckets())
	observeN(tgt, 10, Request{Latency: slow})
	clk.Advance(5 * time.Second)
	observeN(tgt, 10, Request{Latency: fast})
	observeN(tgt, 5, Request{Latency: time.Hour, Failed: true}) // excluded
	for i := 0; i < 10; i++ {
		hist.ObserveDuration(slow)
		hist.ObserveDuration(fast)
	}
	if p, n := tgt.Window(0).LatencyP99(); p != hist.Quantile(0.99) || n != 20 {
		t.Fatalf("full-window p99 = %v over %d, want the cumulative %v over 20", p, n, hist.Quantile(0.99))
	}
	if p, n := tgt.Window(2 * time.Second).LatencyP99(); p > 0.5 || n != 10 {
		t.Fatalf("trailing-2s p99 = %v over %d, want <= 0.5s over 10 (slow phase excluded)", p, n)
	}
	clk.Advance(8 * time.Second) // the slow phase's slot leaves the window
	if p, _ := tgt.Window(0).LatencyP99(); p > 0.5 {
		t.Fatalf("p99 after the slow phase expired = %v, want <= 0.5s", p)
	}
	clk.Advance(Slots * time.Second)
	if p, _ := tgt.Window(0).LatencyP99(); p != obs.NoData {
		t.Fatalf("fully expired p99 = %v, want NoData", p)
	}
}

// After a burst stops, expiry needs no background goroutine: reads
// alone observe the decay to zero.
func TestRingDecayWithoutWriters(t *testing.T) {
	clk := newFakeClock()
	tgt := ringTarget(t, clk)
	observeN(tgt, 7, Request{})
	clk.Advance(Slots*time.Second + time.Second)
	if w := tgt.Window(0); w.Requests != 0 || w.Rate() != 0 {
		t.Fatalf("window after idle expiry = %d requests at %v/s, want 0 without any writer", w.Requests, w.Rate())
	}
}

// Rotation is exact under concurrency: G writers each make M Observe
// calls while the clock is pushed into the next slot mid-run and readers
// merge the ring throughout, and the window holds exactly G×M requests —
// none dropped or misfiled by the rotation. Run it under -race.
func TestRingConcurrentWriters(t *testing.T) {
	const G, M = 8, 2000
	clk := newFakeClock()
	clk.Advance(500 * time.Millisecond) // mid-slot, so a 1ms window sees one slot
	tgt := ringTarget(t, clk)

	var done atomic.Int64
	rotated := make(chan struct{})
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					w := tgt.Window(0)
					_ = w.Rate()
					_, _ = w.LatencyP99()
				}
			}
		}()
	}
	for g := 0; g < G; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < M; i++ {
				if i == M/2 {
					<-rotated // every writer's second half lands after the rotation
				}
				tgt.Observe(Request{Latency: time.Millisecond, Judged: true, Agree: i%2 == 0, Offloaded: 1})
				done.Add(1)
			}
		}()
	}
	// Rotate once a quarter of the calls are in, racing the writers still
	// in their first half.
	for done.Load() < G*M/4 {
		runtime.Gosched()
	}
	clk.Advance(time.Second)
	close(rotated)
	writers.Wait()
	close(stop)
	readers.Wait()

	w := tgt.Window(0)
	_, latencies := w.LatencyP99()
	if w.Requests != G*M || w.Offloaded != G*M || w.Agree+w.Disagree != G*M || latencies != G*M {
		t.Fatalf("window = %+v, want exactly %d of each", w.Counts, G*M)
	}
	if after := tgt.Window(time.Millisecond).Requests; after < G*M/2 || after > G*M*3/4 {
		t.Fatalf("%d requests after the rotation, want between %d and %d", after, G*M/2, G*M*3/4)
	}
}
