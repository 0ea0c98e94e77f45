package edgesim

import (
	"math"
	"testing"
	"time"

	"lcrs/internal/netsim"
)

func baseWorkload() Workload {
	return Workload{
		Clients:         10,
		RequestRate:     1,
		OffloadFraction: 1,
		ServiceTime:     20 * time.Millisecond,
		Duration:        60 * time.Second,
		Seed:            1,
	}
}

func TestValidate(t *testing.T) {
	bad := []func(*Workload){
		func(w *Workload) { w.Clients = 0 },
		func(w *Workload) { w.RequestRate = 0 },
		func(w *Workload) { w.OffloadFraction = -0.1 },
		func(w *Workload) { w.OffloadFraction = 1.1 },
		func(w *Workload) { w.ServiceTime = 0 },
		func(w *Workload) { w.Duration = 0 },
	}
	for i, mutate := range bad {
		w := baseWorkload()
		mutate(&w)
		if _, err := Run(w); err == nil {
			t.Errorf("case %d: invalid workload accepted", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(baseWorkload())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed produced different results: %+v vs %+v", a, b)
	}
}

func TestZeroOffloadServesNothing(t *testing.T) {
	w := baseWorkload()
	w.OffloadFraction = 0
	res, err := Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 0 || res.Utilization != 0 {
		t.Fatalf("zero offload must idle the server: %+v", res)
	}
}

func TestThroughputMatchesArrivalRate(t *testing.T) {
	w := baseWorkload() // offered load 10*1*0.02 = 0.2, stable
	res, err := Run(w)
	if err != nil {
		t.Fatal(err)
	}
	// About Clients * rate * duration arrivals.
	want := float64(w.Clients) * w.RequestRate * w.Duration.Seconds()
	if math.Abs(float64(res.Served)-want)/want > 0.15 {
		t.Fatalf("served %d, want about %.0f", res.Served, want)
	}
	if math.Abs(res.OfferedLoad-0.2) > 1e-9 {
		t.Fatalf("offered load %v, want 0.2", res.OfferedLoad)
	}
	if math.Abs(res.Utilization-0.2) > 0.05 {
		t.Fatalf("utilization %v, want about 0.2", res.Utilization)
	}
}

// M/D/1 sanity: for offered load rho, mean wait = rho*s / (2(1-rho)).
func TestMeanWaitNearMD1(t *testing.T) {
	w := baseWorkload()
	w.Clients = 25 // rho = 0.5
	res, err := Run(w)
	if err != nil {
		t.Fatal(err)
	}
	rho := res.OfferedLoad
	s := w.ServiceTime.Seconds()
	want := rho * s / (2 * (1 - rho))
	got := res.MeanWait.Seconds()
	if math.Abs(got-want)/want > 0.35 {
		t.Fatalf("mean wait %.4fs, M/D/1 predicts %.4fs", got, want)
	}
}

// The motivating claim: LCRS's offload fraction keeps the edge stable where
// edge-only saturates.
func TestLCRSKeepsServerStableUnderLoadWhereEdgeOnlySaturates(t *testing.T) {
	edgeOnly := baseWorkload()
	edgeOnly.Clients = 60 // offered load 1.2: unstable
	lcrs := edgeOnly
	lcrs.OffloadFraction = 0.2 // 80% exit at the binary branch

	eo, err := Run(edgeOnly)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := Run(lcrs)
	if err != nil {
		t.Fatal(err)
	}
	if eo.OfferedLoad <= 1 {
		t.Fatalf("edge-only offered load %v should exceed 1", eo.OfferedLoad)
	}
	if lc.OfferedLoad >= 0.5 {
		t.Fatalf("lcrs offered load %v should be far below 1", lc.OfferedLoad)
	}
	if lc.P95Wait >= eo.P95Wait/10 {
		t.Fatalf("lcrs p95 wait %v not dramatically below edge-only %v", lc.P95Wait, eo.P95Wait)
	}
	if eo.MeanWait < 500*time.Millisecond {
		t.Fatalf("saturated edge-only mean wait %v implausibly low", eo.MeanWait)
	}
}

func TestWaitGrowsWithLoad(t *testing.T) {
	var prev time.Duration
	for i, clients := range []int{10, 30, 45} {
		w := baseWorkload()
		w.Clients = clients
		res, err := Run(w)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.MeanWait <= prev {
			t.Fatalf("mean wait did not grow with load: %v after %v", res.MeanWait, prev)
		}
		prev = res.MeanWait
	}
}

// A link profile plus payload size must add exactly the uplink transfer to
// the sojourn (and only the sojourn — the server queue is untouched), so
// smaller offload frames shorten end-to-end latency proportionally.
func TestTransferAddsToSojourn(t *testing.T) {
	bare := baseWorkload()
	noLink, err := Run(bare)
	if err != nil {
		t.Fatal(err)
	}
	if noLink.Transfer != 0 {
		t.Fatalf("transfer without link = %v", noLink.Transfer)
	}

	withLink := bare
	withLink.Link = netsim.PaperFourG()
	withLink.PayloadBytes = 96 << 10
	res, err := Run(withLink)
	if err != nil {
		t.Fatal(err)
	}
	wantTransfer := withLink.Link.UpTime(withLink.PayloadBytes)
	if res.Transfer != wantTransfer {
		t.Fatalf("transfer %v, want %v", res.Transfer, wantTransfer)
	}
	if res.MeanSojourn != noLink.MeanSojourn+wantTransfer {
		t.Fatalf("sojourn %v, want %v + %v", res.MeanSojourn, noLink.MeanSojourn, wantTransfer)
	}
	if res.MeanWait != noLink.MeanWait {
		t.Fatalf("queue wait changed with link: %v vs %v", res.MeanWait, noLink.MeanWait)
	}

	// A quarter-size frame (q8 vs raw) shrinks the sojourn.
	smaller := withLink
	smaller.PayloadBytes = withLink.PayloadBytes / 4
	small, err := Run(smaller)
	if err != nil {
		t.Fatal(err)
	}
	if small.MeanSojourn >= res.MeanSojourn {
		t.Fatalf("smaller payload sojourn %v not below %v", small.MeanSojourn, res.MeanSojourn)
	}
}

// TestRunPinnedFIFO pins Run to the bit: these results were recorded from
// the simulator before its batching and cache model were removed, with
// both at their zero defaults, so the plain single-server FIFO must
// reproduce them exactly, the second workload with an uplink transfer.
func TestRunPinnedFIFO(t *testing.T) {
	cases := []struct {
		w    Workload
		want Result
	}{
		{baseWorkload(), Result{
			Served: 564, Utilization: 0.18799999999999747,
			MeanWait: 2634533, P95Wait: 17288425,
			MeanSojourn: 22634533, P50Sojourn: 20000000, P99Sojourn: 56099234,
			OfferedLoad: 0.2,
		}},
		{Workload{
			Clients: 60, RequestRate: 1, OffloadFraction: 0.4, ServiceTime: 20 * time.Millisecond,
			Duration: 30 * time.Second, Seed: 7, Link: netsim.PaperFourG(), PayloadBytes: 4096,
		}, Result{
			Served: 733, Utilization: 0.48841719309315534,
			MeanWait: 8906405, P95Wait: 39061573, Transfer: 21365333,
			MeanSojourn: 50271738, P50Sojourn: 41365333, P99Sojourn: 97583526,
			OfferedLoad: 0.48,
		}},
	}
	for i, c := range cases {
		got, err := Run(c.w)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Fatalf("case %d:\n got %+v\nwant %+v", i, got, c.want)
		}
	}
}
