package webclient

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"lcrs/internal/binary"
	"lcrs/internal/collab"
	"lcrs/internal/edge"
)

// When the edge becomes unreachable mid-session, a client with
// FallbackToBinary keeps answering from the binary branch instead of
// failing the scan — and reports the degradation.
func TestFallbackToBinaryOnEdgeOutage(t *testing.T) {
	c, m, test, done := trainServeClient(t, 0.0) // tau=0: every sample wants the edge
	ctx := context.Background()

	// Kill the edge server: subsequent edge calls fail at the transport.
	done()

	x, _ := test.Sample(0)
	if _, err := c.Recognize(ctx, x); err == nil {
		t.Fatal("without fallback, an edge outage must surface as an error")
	}

	c.FallbackToBinary = true
	res, err := c.Recognize(ctx, x)
	if err != nil {
		t.Fatalf("fallback client errored: %v", err)
	}
	if !res.Degraded {
		t.Fatal("result must be marked degraded")
	}
	if res.Exited {
		t.Fatal("degraded result is not a confident exit")
	}
	// The degraded prediction must equal the local binary branch's answer.
	batch := x.Reshape(1, x.Dim(0), x.Dim(1), x.Dim(2))
	want := binary.PackBranch(m.CloneForInference().Binary).Forward(m.ForwardShared(batch, false)).Argmax()
	if res.Pred != want {
		t.Fatalf("degraded pred %d, binary pred %d", res.Pred, want)
	}
	if res.EdgeTime != 0 || res.ServerMicros != 0 {
		t.Fatalf("degraded result must not report edge timings: %+v", res)
	}
}

// Recognize must return the collaborative path's exact predictions while
// background clients hammer the same edge server through its replica pool,
// and must still degrade cleanly to the binary branch once that loaded
// server disappears.
func TestRecognizeUnderConcurrentEdgeLoad(t *testing.T) {
	const (
		loadWorkers = 8
		samples     = 6
	)
	m, test := trainedFixture(t)

	s, err := edge.New(edge.WithReplicas(4)) // several live forward contexts even on a 1-CPU host
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("lenet-mnist", m); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	c, err := New(srv.URL, WithHTTPClient(srv.Client()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// tau=0: every Recognize consults the edge, so the foreground client
	// contends with the load generators for replicas on each sample.
	if err := c.LoadModel(ctx, "lenet-mnist", "lenet", fixtureCfg, 0.0); err != nil {
		t.Fatal(err)
	}

	// Serial references, computed before any concurrent traffic starts.
	want := make([]int, samples)
	for i := range want {
		x, _ := test.Sample(i)
		batch := x.Reshape(1, x.Dim(0), x.Dim(1), x.Dim(2))
		want[i] = m.ForwardMainRest(m.ForwardShared(batch, false), false).Argmax()
	}

	// Background load: loadWorkers goroutines posting one fixed frame in a
	// loop until stopped.
	x0, _ := test.Sample(0)
	batch0 := x0.Reshape(1, x0.Dim(0), x0.Dim(1), x0.Dim(2))
	var frame bytes.Buffer
	if err := collab.WriteTensor(&frame, m.ForwardShared(batch0, false)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < loadWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(srv.URL+"/v1/infer/lenet-mnist", "application/octet-stream",
					bytes.NewReader(frame.Bytes()))
				if err != nil {
					return // server shutting down is fine for a load generator
				}
				resp.Body.Close()
			}
		}()
	}

	for i := 0; i < samples; i++ {
		x, _ := test.Sample(i)
		res, err := c.Recognize(ctx, x)
		if err != nil {
			t.Fatalf("Recognize under load: %v", err)
		}
		if res.Degraded {
			t.Fatal("live loaded server must not degrade the client")
		}
		if !res.Exited && res.Pred != want[i] {
			t.Fatalf("sample %d: pred %d under load, serial path predicts %d", i, res.Pred, want[i])
		}
	}

	close(stop)
	wg.Wait()
	srv.Close()

	c.FallbackToBinary = true
	res, err := c.Recognize(ctx, x0)
	if err != nil {
		t.Fatalf("fallback after outage: %v", err)
	}
	if !res.Degraded {
		t.Fatal("result after outage must be marked degraded")
	}
}
