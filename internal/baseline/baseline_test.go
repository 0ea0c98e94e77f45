package baseline

import (
	"testing"
	"time"

	"lcrs/internal/device"
	"lcrs/internal/edgesim"
	"lcrs/internal/models"
	"lcrs/internal/netsim"
)

func testEnv() Env {
	return Env{
		Cost: edgesim.CostModel{
			Client: device.MobileBrowser(),
			Server: device.EdgeServer(),
			Link:   netsim.PaperFourG(),
		},
		SessionSamples: 1,
	}
}

func buildModel(t *testing.T, arch string, scale float64) *models.Composite {
	t.Helper()
	m, err := models.Build(arch, models.Config{
		Classes: 10, InC: 3, InH: 32, InW: 32, WidthScale: scale, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEnvValidation(t *testing.T) {
	m := buildModel(t, "lenet", 0.1)
	bad := Env{SessionSamples: 1}
	if _, err := MobileOnly(m, bad); err == nil {
		t.Fatal("missing link must be rejected")
	}
	bad = testEnv()
	bad.SessionSamples = 0
	if _, err := EdgeOnly(m, bad); err == nil {
		t.Fatal("zero session must be rejected")
	}
}

func TestMobileOnlyShape(t *testing.T) {
	m := buildModel(t, "alexnet", 0.25)
	rep, err := MobileOnly(m, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerSampleComm != 0 {
		t.Fatal("mobile-only must have no per-sample communication")
	}
	if rep.ClientModelBytes != m.MainSizeBytes() {
		t.Fatalf("client bytes %d, want full model %d", rep.ClientModelBytes, m.MainSizeBytes())
	}
	if rep.ModelLoad <= 0 {
		t.Fatal("mobile-only must pay model loading")
	}
	if rep.AvgComm != rep.ModelLoad {
		t.Fatalf("cold-session comm %v must equal load %v", rep.AvgComm, rep.ModelLoad)
	}
}

func TestEdgeOnlyShape(t *testing.T) {
	m := buildModel(t, "alexnet", 0.25)
	rep, err := EdgeOnly(m, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ClientModelBytes != 0 || rep.ModelLoad != 0 {
		t.Fatal("edge-only must not load a client model")
	}
	if rep.PerSampleComm <= 0 {
		t.Fatal("edge-only must pay per-sample upload")
	}
	if rep.PartitionAfter != -1 {
		t.Fatalf("edge-only partition = %d, want -1", rep.PartitionAfter)
	}
}

func TestNeurosurgeonPicksMinCommunicationCut(t *testing.T) {
	env := testEnv()
	for _, arch := range models.Names() {
		m := buildModel(t, arch, 0.2)
		ns, err := Neurosurgeon(m, env)
		if err != nil {
			t.Fatal(err)
		}
		costs := models.MainLayerCosts(m)
		if ns.PartitionAfter < 0 || ns.PartitionAfter >= len(costs)-1 {
			t.Fatalf("%s: partition %d must offload at least the final layer", arch, ns.PartitionAfter)
		}
		chosen := costs[ns.PartitionAfter].OutBytes
		for cut := 0; cut < len(costs)-1; cut++ {
			if costs[cut].OutBytes < chosen {
				t.Fatalf("%s: cut %d ships %d bytes, chosen cut %d ships %d",
					arch, cut, costs[cut].OutBytes, ns.PartitionAfter, chosen)
			}
		}
		// The client partition must be a strict subset of the full model.
		if ns.ClientModelBytes >= m.MainSizeBytes() {
			t.Errorf("%s: client partition (%d bytes) is not smaller than the model (%d)",
				arch, ns.ClientModelBytes, m.MainSizeBytes())
		}
	}
}

// The paper's critique of partition-offloading: for deep networks the
// min-communication cut strands most of the parameter mass on the browser,
// so loading stays enormous.
func TestNeurosurgeonClientHeavyOnDeepNetworks(t *testing.T) {
	for _, arch := range []string{"alexnet", "resnet18", "vgg16"} {
		m := buildModel(t, arch, 0.25)
		rep, err := Neurosurgeon(m, testEnv())
		if err != nil {
			t.Fatal(err)
		}
		if frac := float64(rep.ClientModelBytes) / float64(m.MainSizeBytes()); frac < 0.3 {
			t.Errorf("%s: min-comm partition put only %.0f%% of the model on the client", arch, frac*100)
		}
	}
}

func TestNeurosurgeonWarmSessionShiftsComputeToClient(t *testing.T) {
	// With loading amortized over many samples, more client compute can pay
	// off; at minimum the average must drop.
	m := buildModel(t, "alexnet", 0.2)
	cold := testEnv()
	warm := testEnv()
	warm.SessionSamples = 1000
	repCold, err := Neurosurgeon(m, cold)
	if err != nil {
		t.Fatal(err)
	}
	repWarm, err := Neurosurgeon(m, warm)
	if err != nil {
		t.Fatal(err)
	}
	if repWarm.AvgTotal >= repCold.AvgTotal {
		t.Fatalf("warm session %v must beat cold %v", repWarm.AvgTotal, repCold.AvgTotal)
	}
}

func TestEdgentValidation(t *testing.T) {
	m := buildModel(t, "lenet", 0.1)
	opts := DefaultEdgentOptions()
	opts.ExitRate = 1.5
	if _, err := Edgent(m, testEnv(), opts); err == nil {
		t.Fatal("exit rate > 1 must be rejected")
	}
}

func TestEdgentBeatsNeurosurgeonWithExits(t *testing.T) {
	// With a free-ish exit head and a meaningful exit rate, Edgent's early
	// exits must not lose to plain Neurosurgeon partitioning.
	env := testEnv()
	env.SessionSamples = 100
	m := buildModel(t, "resnet18", 0.2)
	opts := EdgentOptions{ExitRate: 0.4, ExitHeadBytes: 64 << 10}
	ed, err := Edgent(m, env, opts)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := Neurosurgeon(m, env)
	if err != nil {
		t.Fatal(err)
	}
	if ed.AvgTotal > ns.AvgTotal+time.Millisecond {
		t.Fatalf("edgent %v notably worse than neurosurgeon %v", ed.AvgTotal, ns.AvgTotal)
	}
}

func TestEdgentZeroExitRateMatchesNeurosurgeonPlusHead(t *testing.T) {
	env := testEnv()
	m := buildModel(t, "alexnet", 0.15)
	ed, err := Edgent(m, env, EdgentOptions{ExitRate: 0, ExitHeadBytes: 0})
	if err != nil {
		t.Fatal(err)
	}
	ns, err := Neurosurgeon(m, env)
	if err != nil {
		t.Fatal(err)
	}
	if ed.AvgTotal != ns.AvgTotal {
		t.Fatalf("edgent with no exits (%v) must equal neurosurgeon (%v)", ed.AvgTotal, ns.AvgTotal)
	}
}

// The Table II headline: LCRS's client payload (binary bundle) is far
// smaller than what any baseline puts on the browser for deep networks, so
// its cold-session latency must win by a large factor.
func TestLCRSBeatsAllBaselinesOnDeepNetworks(t *testing.T) {
	env := testEnv()
	for _, arch := range []string{"alexnet", "resnet18", "vgg16"} {
		m := buildModel(t, arch, 0.25)
		lcrsLoad := env.Cost.Link.DownTime(m.BinarySizeBytes())
		lcrsClient := env.Cost.Client.ComputeTime(m.BinaryFLOPs())
		lcrsTotal := lcrsLoad + lcrsClient // binary-exit path, cold session

		mo, _ := MobileOnly(m, env)
		ns, _ := Neurosurgeon(m, env)
		ed, _ := Edgent(m, env, DefaultEdgentOptions())
		for _, rep := range []Report{mo, ns, ed} {
			if ratio := float64(rep.AvgTotal) / float64(lcrsTotal); ratio < 3 {
				t.Errorf("%s: %s only %.1fx slower than LCRS (paper reports 3x-60x)",
					arch, rep.Approach, ratio)
			}
		}
	}
}
