package collab

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"lcrs/internal/dataset"
	"lcrs/internal/models"
	"lcrs/internal/tensor"
	"lcrs/internal/training"
)

// The Runtime tests share one trained LeNet; each gets its own Runtime and
// a freshly seeded link, so a test that moves rt.Tau or draws link jitter
// leaves the others as they were.
var (
	trainedOnce  sync.Once
	trainedModel *models.Composite
	trainedTest  *dataset.Dataset
	trainedErr   error
)

func trainLeNet() (*models.Composite, *dataset.Dataset, error) {
	m, err := models.Build("lenet", models.Config{
		Classes: 10, InC: 1, InH: 28, InW: 28, WidthScale: 0.12, Seed: 1,
	})
	if err != nil {
		return nil, nil, err
	}
	full, err := dataset.GenerateByName("mnist", 400, 2)
	if err != nil {
		return nil, nil, err
	}
	train, test := full.Split(0.7)
	opts := training.DefaultOptions()
	opts.Epochs = 8
	if _, err := training.Run(m, train, test, opts); err != nil {
		return nil, nil, err
	}
	return m, test, nil
}

func trainedRuntime(t *testing.T, tau float64) (*Runtime, *dataset.Dataset) {
	t.Helper()
	trainedOnce.Do(func() { trainedModel, trainedTest, trainedErr = trainLeNet() })
	if trainedErr != nil {
		t.Fatal(trainedErr)
	}
	cm := DefaultCostModel()
	cm.Link.Seed(1)
	rt, err := NewRuntime(trainedModel, tau, cm)
	if err != nil {
		t.Fatal(err)
	}
	return rt, trainedTest
}

func TestNewRuntimeValidation(t *testing.T) {
	if _, err := NewRuntime(nil, 0.1, DefaultCostModel()); err == nil {
		t.Fatal("nil model must be rejected")
	}
	m, _ := models.Build("lenet", models.Config{Classes: 10, InC: 1, InH: 28, InW: 28, WidthScale: 0.05, Seed: 1})
	if _, err := NewRuntime(m, 1.5, DefaultCostModel()); err == nil {
		t.Fatal("tau > 1 must be rejected")
	}
	if _, err := NewRuntime(m, 0.5, CostModel{}); err == nil {
		t.Fatal("missing link must be rejected")
	}
}

func TestInferExitPath(t *testing.T) {
	rt, test := trainedRuntime(t, 1.0) // tau=1: everything exits
	x, _ := test.Sample(0)
	rec := rt.Infer(x)
	if !rec.Exited {
		t.Fatal("tau=1 must exit at the binary branch")
	}
	if rec.Uplink != 0 || rec.ServerCompute != 0 || rec.Downlink != 0 {
		t.Fatalf("exited sample must not pay server stages: %+v", rec)
	}
	if rec.ClientCompute <= 0 {
		t.Fatal("client compute must be positive")
	}
	if rec.Total() != rec.ClientCompute {
		t.Fatal("total must equal client compute on exit")
	}
}

func TestInferCollaborativePath(t *testing.T) {
	rt, test := trainedRuntime(t, 0.0) // tau=0: nothing exits
	x, _ := test.Sample(0)
	rec := rt.Infer(x)
	if rec.Exited {
		t.Fatal("tau=0 must never exit")
	}
	if rec.Uplink <= 0 || rec.ServerCompute <= 0 || rec.Downlink <= 0 {
		t.Fatalf("collaborative sample must pay all stages: %+v", rec)
	}
	if rec.Comm() != rec.Uplink+rec.Downlink {
		t.Fatal("Comm must be uplink + downlink")
	}
}

func TestCollaborationImprovesAccuracyOverBinaryOnly(t *testing.T) {
	rt, test := trainedRuntime(t, 0.0)
	n := 60
	all, err := rt.RunSession(test, n)
	if err != nil {
		t.Fatal(err)
	}
	rt.Tau = 1.0
	binOnly, err := rt.RunSession(test, n)
	if err != nil {
		t.Fatal(err)
	}
	if all.Accuracy < binOnly.Accuracy-1e-9 {
		t.Fatalf("main-branch collaboration (%.3f) must not lose to binary-only (%.3f)",
			all.Accuracy, binOnly.Accuracy)
	}
	if binOnly.AvgTotal >= all.AvgTotal {
		t.Fatalf("binary-only (%v) must be faster than always-collaborate (%v)",
			binOnly.AvgTotal, all.AvgTotal)
	}
}

func TestRunSessionAmortizesModelLoad(t *testing.T) {
	rt, test := trainedRuntime(t, 1.0)
	s10, err := rt.RunSession(test, 10)
	if err != nil {
		t.Fatal(err)
	}
	s50, err := rt.RunSession(test, 50)
	if err != nil {
		t.Fatal(err)
	}
	if s10.ModelLoad != s50.ModelLoad {
		t.Fatal("model load cost must not depend on session length")
	}
	// Longer sessions amortize loading further; per-sample compute is the
	// same, so the average must fall.
	if s50.AvgComm >= s10.AvgComm {
		t.Fatalf("AvgComm must shrink with session length: %v vs %v", s10.AvgComm, s50.AvgComm)
	}
}

func TestRunSessionValidatesN(t *testing.T) {
	rt, test := trainedRuntime(t, 0.5)
	if _, err := rt.RunSession(test, 0); err == nil {
		t.Fatal("n=0 must be rejected")
	}
	if _, err := rt.RunSession(test, test.Len()+1); err == nil {
		t.Fatal("oversized session must be rejected")
	}
}

func TestModelLoadTimeMatchesBundleSize(t *testing.T) {
	rt, _ := trainedRuntime(t, 0.5)
	want := rt.Cost.Link.DownTime(rt.Model.BinarySizeBytes())
	if got := rt.ModelLoadTime(); got != want {
		t.Fatalf("ModelLoadTime = %v, want %v", got, want)
	}
	if rt.ModelLoadTime() <= 0 {
		t.Fatal("model load must take time")
	}
}

func TestRecordTotalDecomposition(t *testing.T) {
	rec := Record{
		ClientCompute: 10 * time.Millisecond,
		Uplink:        20 * time.Millisecond,
		ServerCompute: 5 * time.Millisecond,
		Downlink:      3 * time.Millisecond,
	}
	if rec.Total() != 38*time.Millisecond {
		t.Fatalf("Total = %v", rec.Total())
	}
	if rec.Comm() != 23*time.Millisecond {
		t.Fatalf("Comm = %v", rec.Comm())
	}
}

func TestTensorFrameRoundTrip(t *testing.T) {
	g := tensor.NewRNG(1)
	for _, shape := range [][]int{{4}, {2, 3}, {1, 3, 8, 8}} {
		want := g.Uniform(-5, 5, shape...)
		var buf bytes.Buffer
		if err := WriteTensor(&buf, want); err != nil {
			t.Fatal(err)
		}
		if int64(buf.Len()) != FrameBytes(want) {
			t.Fatalf("FrameBytes = %d, encoded %d", FrameBytes(want), buf.Len())
		}
		got, err := ReadTensor(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(want, got, 0) {
			t.Fatal("frame round trip lost data")
		}
	}
}

func TestReadTensorRejectsBadFrames(t *testing.T) {
	// Bad magic.
	if _, err := ReadTensor(bytes.NewReader([]byte{0, 0, 0, 0, 1, 0, 0, 0})); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Huge claimed dimension must be rejected before allocation.
	var buf bytes.Buffer
	buf.Write([]byte{0x46, 0x54, 0x43, 0x4C}) // magic LE
	buf.Write([]byte{2, 0, 0, 0})             // rank 2
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0x7F}) // dim 2^31-1
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0x7F})
	if _, err := ReadTensor(&buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Truncated payload.
	var buf2 bytes.Buffer
	g := tensor.NewRNG(2)
	if err := WriteTensor(&buf2, g.Uniform(0, 1, 10)); err != nil {
		t.Fatal(err)
	}
	trunc := buf2.Bytes()[:buf2.Len()-8]
	if _, err := ReadTensor(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// The runtime's measured wall-clock fields complement the cost-model
// attribution: local forwards really ran, so their measurements must be
// populated exactly on the paths that executed.
func TestInferMeasuredWallClock(t *testing.T) {
	rt, test := trainedRuntime(t, 0.0) // never exit
	x, _ := test.Sample(0)
	rec := rt.Infer(x)
	if rec.MeasuredClient <= 0 || rec.MeasuredServer <= 0 {
		t.Fatalf("offloaded sample must measure both forwards: %+v", rec)
	}

	rt.Tau = 1.0 // always exit
	rec = rt.Infer(x)
	if rec.MeasuredClient <= 0 {
		t.Fatalf("exit still runs the binary branch: %+v", rec)
	}
	if rec.MeasuredServer != 0 {
		t.Fatalf("exit must not measure a server forward: %+v", rec)
	}

	rt.Tau = 0.0
	st, err := rt.RunSession(test, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st.AvgMeasuredClient <= 0 || st.AvgMeasuredServer <= 0 {
		t.Fatalf("session aggregates missing measured means: %+v", st)
	}
}
