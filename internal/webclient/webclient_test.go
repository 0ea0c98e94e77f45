package webclient

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"lcrs/internal/binary"
	"lcrs/internal/dataset"
	"lcrs/internal/edge"
	"lcrs/internal/models"
	"lcrs/internal/tensor"
	"lcrs/internal/training"
)

var fixtureCfg = models.Config{Classes: 10, InC: 1, InH: 28, InW: 28, WidthScale: 0.12, Seed: 1}

var fixture struct {
	once  sync.Once
	model *models.Composite
	test  *dataset.Dataset
	err   error
}

// trainedFixture trains the shared lenet once per test binary. Tests only
// evaluate (read-only forward passes), so sharing is safe.
func trainedFixture(t *testing.T) (*models.Composite, *dataset.Dataset) {
	t.Helper()
	fixture.once.Do(func() {
		m, err := models.Build("lenet", fixtureCfg)
		if err != nil {
			fixture.err = err
			return
		}
		full, err := dataset.GenerateByName("mnist", 400, 2)
		if err != nil {
			fixture.err = err
			return
		}
		train, test := full.Split(0.7)
		opts := training.DefaultOptions()
		opts.Epochs = 8
		if _, err := training.Run(m, train, test, opts); err != nil {
			fixture.err = err
			return
		}
		fixture.model, fixture.test = m, test
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.model, fixture.test
}

// trainServeClient registers the shared trained model with a fresh
// in-process edge server and returns a loaded client plus the test set —
// the full Figure 8 topology over an HTTP loopback.
func trainServeClient(t *testing.T, tau float64) (*Client, *models.Composite, *dataset.Dataset, func()) {
	t.Helper()
	cfg := fixtureCfg
	m, test := trainedFixture(t)

	s, err := edge.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("lenet-mnist", m); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())

	c, err := New(srv.URL, WithHTTPClient(srv.Client()))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadModel(context.Background(), "lenet-mnist", "lenet", cfg, tau); err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return c, m, test, srv.Close
}

func TestLoadModelAndStats(t *testing.T) {
	c, _, _, done := trainServeClient(t, 0.5)
	defer done()
	loadTime, loadBytes := c.LoadStats()
	if loadTime <= 0 || loadBytes <= 0 {
		t.Fatalf("load stats: %v / %d", loadTime, loadBytes)
	}
}

func TestLoadModelRejectsBadTau(t *testing.T) {
	c, err := New("http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := models.Config{Classes: 10, InC: 1, InH: 28, InW: 28, WidthScale: 0.08, Seed: 1}
	if err := c.LoadModel(context.Background(), "x", "lenet", cfg, 2); err == nil {
		t.Fatal("tau > 1 must be rejected")
	}
}

func TestRecognizeWithoutModel(t *testing.T) {
	c, err := New("http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := dataset.GenerateByName("mnist", 2, 1)
	x, _ := ds.Sample(0)
	if _, err := c.Recognize(context.Background(), x); err == nil {
		t.Fatal("Recognize without a model must fail")
	}
}

// A sample whose shape is not the loaded model's input is refused with an
// error before any layer runs — a client started against the wrong dataset
// must not panic inside conv1 or the binary branch — and the client keeps
// answering well-formed samples afterwards.
func TestRecognizeRejectsWrongShape(t *testing.T) {
	c, _, s, _, done := newSwapRig(t, 0.5) // a LeNet client of 1x28x28 samples
	defer done()
	defer s.Close()
	ctx := context.Background()
	g := tensor.NewRNG(1)
	for _, shape := range [][]int{{1, 14, 14}, {3, 28, 28}, {1, 1, 28, 28}, {28, 28}} {
		res, err := c.Recognize(ctx, g.Uniform(0, 1, shape...))
		if err == nil || !strings.Contains(err.Error(), "1x28x28") {
			t.Errorf("shape %v: got %+v, %v; want an error naming 1x28x28", shape, res, err)
		}
	}
	if _, err := c.Recognize(ctx, sampleFrame(t)); err != nil {
		t.Fatalf("well-formed sample after refusals: %v", err)
	}
}

// Options that cannot configure a working client fail construction.
func TestNewRejectsBadOptions(t *testing.T) {
	for name, opt := range map[string]Option{
		"unknown codec":         WithCodec("zstd"),
		"negative exit flush":   WithExitFlush(-1),
		"oversized cache":       WithSessionCache(1<<20 + 1),
		"negative revalidation": WithRevalidateEvery(-1),
	} {
		if _, err := New("http://127.0.0.1:1", opt); err == nil {
			t.Errorf("%s: New succeeded", name)
		}
	}
}

func TestModelsListing(t *testing.T) {
	c, _, _, done := trainServeClient(t, 0.5)
	defer done()
	infos, err := c.Models(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "lenet-mnist" {
		t.Fatalf("Models = %+v", infos)
	}
}

// The client-side binary path must agree with direct evaluation of the
// registered model (the bundle round trip preserves inference), and the
// edge path must agree with the server's main branch.
func TestRecognizeMatchesDirectEvaluation(t *testing.T) {
	c, m, test, done := trainServeClient(t, 1.0) // always exit
	defer done()
	ctx := context.Background()
	branch := binary.PackBranch(m.CloneForInference().Binary)
	for i := 0; i < 10; i++ {
		x, _ := test.Sample(i)
		res, err := c.Recognize(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exited {
			t.Fatal("tau=1 must exit locally")
		}
		batch := x.Reshape(1, x.Dim(0), x.Dim(1), x.Dim(2))
		want := branch.Forward(m.ForwardShared(batch, false)).Argmax()
		if res.Pred != want {
			t.Fatalf("sample %d: client pred %d, direct pred %d", i, res.Pred, want)
		}
		if res.Stages.Local <= 0 || res.Stages.RTT != 0 {
			t.Fatalf("timings wrong for exit: %+v", res)
		}
	}
}

func TestRecognizeCollaborativePath(t *testing.T) {
	c, m, test, done := trainServeClient(t, 0.0) // never exit
	defer done()
	ctx := context.Background()
	correct, n := 0, 20
	for i := 0; i < n; i++ {
		x, label := test.Sample(i)
		res, err := c.Recognize(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		if res.Exited {
			t.Fatal("tau=0 must never exit")
		}
		if res.Stages.RTT <= 0 {
			t.Fatal("edge round trip must be measured")
		}
		batch := x.Reshape(1, x.Dim(0), x.Dim(1), x.Dim(2))
		want := m.ForwardMainRest(m.ForwardShared(batch, false), false).Argmax()
		if res.Pred != want {
			t.Fatalf("sample %d: edge pred %d, direct main pred %d", i, res.Pred, want)
		}
		if res.Pred == label {
			correct++
		}
	}
	if correct < n/2 {
		t.Fatalf("end-to-end accuracy implausibly low: %d/%d", correct, n)
	}
}

func TestLoadModelUnknownName(t *testing.T) {
	c, _, _, done := trainServeClient(t, 0.5)
	defer done()
	cfg := models.Config{Classes: 10, InC: 1, InH: 28, InW: 28, WidthScale: 0.08, Seed: 1}
	if err := c.LoadModel(context.Background(), "missing", "lenet", cfg, 0.5); err == nil {
		t.Fatal("unknown model name must fail")
	}
}
