package edgesim

import (
	"testing"
	"time"

	"lcrs/internal/device"
	"lcrs/internal/models"
	"lcrs/internal/netsim"
)

func expectationCostModel() CostModel {
	return CostModel{Client: device.MobileBrowser(), Server: device.EdgeServer(), Link: netsim.FourG()}
}

func TestExpectedLatencyFullExitPaysOnlyClient(t *testing.T) {
	cm := expectationCostModel()
	bp := BranchPoint{ExitRate: 1, ClientFLOPs: 1e7, IntermediateBytes: 1 << 20, ServerFLOPs: 1e9}
	got := ExpectedLatency(bp, cm)
	want := cm.Client.ComputeTime(1e7)
	if got != want {
		t.Fatalf("full-exit expectation %v, want client-only %v", got, want)
	}
}

func TestExpectedLatencyMonotoneInExitRate(t *testing.T) {
	cm := expectationCostModel()
	prev := time.Duration(1 << 62)
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
		bp := BranchPoint{ExitRate: p, ClientFLOPs: 1e7, IntermediateBytes: 256 << 10, ServerFLOPs: 5e8}
		e := ExpectedLatency(bp, cm)
		if e >= prev {
			t.Fatalf("expectation not decreasing with exit rate: %v at p=%v", e, p)
		}
		prev = e
	}
}

// The §IV-D1 claim: with a small exit-rate lift, a second branch deeper in
// the network costs more than it saves. The effect is driven by the
// full-precision trunk between the two attachment points running on the
// slow browser, so the test uses the paper-size build.
func TestTwoBranchWorseThanOneForSmallLift(t *testing.T) {
	cm := expectationCostModel()
	cfg := models.Config{Classes: 10, InC: 3, InH: 32, InW: 32, WidthScale: 1, Seed: 1}
	m1, err := models.AlexNetBranchAt(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := models.AlexNetBranchAt(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	one := BranchPointForComposite(m1, 0.8)
	second := BranchPointForComposite(m2, 0.1) // small conditional lift
	eOne := ExpectedLatency(one, cm)
	eTwo := ExpectedLatencyTwoBranch(one, second, cm)
	if eTwo <= eOne {
		t.Fatalf("two-branch expectation %v not worse than one-branch %v", eTwo, eOne)
	}
}

func TestBranchPointForComposite(t *testing.T) {
	cfg := models.Config{Classes: 10, InC: 3, InH: 32, InW: 32, WidthScale: 0.1, Seed: 1}
	m, err := models.Build("alexnet", cfg)
	if err != nil {
		t.Fatal(err)
	}
	bp := BranchPointForComposite(m, 0.7)
	if bp.ExitRate != 0.7 {
		t.Fatalf("exit rate %v", bp.ExitRate)
	}
	if bp.ClientFLOPs != m.BinaryFLOPs() {
		t.Fatal("client FLOPs mismatch")
	}
	if bp.IntermediateBytes != m.SharedOutBytes() {
		t.Fatal("intermediate bytes mismatch")
	}
	if bp.ServerFLOPs <= 0 || bp.ClientModelBytes <= 0 {
		t.Fatalf("non-positive costs: %+v", bp)
	}
}

// The §IV-D2 driver on AlexNet: a deeper attachment point means more
// full-precision prefix executed on the slow browser, so at equal exit
// rates both the client compute and the expected latency grow with the
// attachment depth — conv1 is optimal.
func TestBranchLocationGrowsClientComputeAndLatency(t *testing.T) {
	cfg := models.Config{Classes: 10, InC: 3, InH: 32, InW: 32, WidthScale: 0.25, Seed: 1}
	cm := expectationCostModel()
	var prevFLOPs int64
	var prevE time.Duration
	for loc := 1; loc <= 4; loc++ {
		m, err := models.AlexNetBranchAt(cfg, loc)
		if err != nil {
			t.Fatal(err)
		}
		bp := BranchPointForComposite(m, 0.8)
		e := ExpectedLatency(bp, cm)
		if loc > 1 {
			if bp.ClientFLOPs <= prevFLOPs {
				t.Fatalf("client FLOPs at location %d (%d) not larger than at %d (%d)",
					loc, bp.ClientFLOPs, loc-1, prevFLOPs)
			}
			if e <= prevE {
				t.Fatalf("expected latency at location %d (%v) not larger than at %d (%v)",
					loc, e, loc-1, prevE)
			}
		}
		prevFLOPs, prevE = bp.ClientFLOPs, e
	}
}
