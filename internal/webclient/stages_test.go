package webclient

import (
	"context"
	"net/http"
	"testing"
	"time"

	"lcrs/internal/collab"
)

// TestRecognizeStages pins Result.Stages on both Algorithm 2 paths and the
// per-sample split of the edge's stage echo: an exit carries only the
// local stage, an offload carries a round trip that bounds the echoed edge
// stages, and the echo divides evenly over the samples of its request.
func TestRecognizeStages(t *testing.T) {
	ctx := context.Background()
	t.Run("exit", func(t *testing.T) {
		c, _, test, done := trainServeClient(t, 1.0)
		defer done()
		x, _ := test.Sample(0)
		res, err := c.Recognize(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		if st := res.Stages; !res.Exited || st.Local <= 0 || st != (StageTimes{Local: st.Local}) {
			t.Fatalf("exit (exited=%v) stages %+v, want only Local > 0", res.Exited, st)
		}
	})
	t.Run("offload", func(t *testing.T) {
		c, _, test, done := trainServeClient(t, 0.0)
		defer done()
		x, _ := test.Sample(0)
		res, err := c.Recognize(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stages
		if res.Exited || st.RTT <= 0 || st.EdgeForward <= 0 {
			t.Fatalf("offload (exited=%v) stages %+v, want RTT and EdgeForward > 0", res.Exited, st)
		}
		if st.EdgeTotal() > st.RTT || st.Network() != st.RTT-st.EdgeTotal() {
			t.Fatalf("edge stages %v, RTT %v, Network() %v", st.EdgeTotal(), st.RTT, st.Network())
		}
	})
	t.Run("mergeEcho", func(t *testing.T) {
		for _, tc := range []struct {
			name string
			echo *collab.StageMicros
			n    int
			want StageTimes
		}{
			{"nil echo", nil, 1, StageTimes{}},
			{"split over 3", &collab.StageMicros{Forward: 900}, 3, StageTimes{EdgeForward: 300 * time.Microsecond}},
			{"every stage", &collab.StageMicros{Read: 1, Decode: 2, Queue: 3, BatchWait: 4, Forward: 5}, 1, StageTimes{
				EdgeRead: time.Microsecond, EdgeDecode: 2 * time.Microsecond, EdgeQueue: 3 * time.Microsecond,
				EdgeBatchWait: 4 * time.Microsecond, EdgeForward: 5 * time.Microsecond,
			}},
		} {
			var got StageTimes
			got.mergeEcho(tc.echo, tc.n)
			if got != tc.want {
				t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
			}
		}
	})
}

// Offloaded recognitions must carry a full measured stage breakdown: the
// client-side stages populated from local clocks, the edge-side stages
// from the server's echo, and the whole decomposition consistent with the
// top-level timings (stages can never sum past what was measured).
func TestRecognizeStageTimings(t *testing.T) {
	c, _, test, done := trainServeClient(t, 0.0) // never exit: always offload
	defer done()
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		x, _ := test.Sample(i)
		res, err := c.Recognize(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stages
		if st.Local <= 0 || st.Local != res.ClientTime {
			t.Fatalf("Local = %v, ClientTime = %v", st.Local, res.ClientTime)
		}
		if st.Encode <= 0 {
			t.Fatalf("Encode = %v, want > 0 on the offload path", st.Encode)
		}
		if st.RTT <= 0 || st.RTT != res.EdgeTime {
			t.Fatalf("RTT = %v, EdgeTime = %v", st.RTT, res.EdgeTime)
		}
		if st.EdgeForward <= 0 {
			t.Fatalf("echoed forward stage = %v, want > 0", st.EdgeForward)
		}
		if st.EdgeBatchWait != 0 {
			t.Fatalf("batch wait = %v on an unbatched server", st.EdgeBatchWait)
		}
		// The server's accounted stages happened inside the round trip the
		// client measured, so they cannot exceed it (the echo rounds down
		// to microseconds, the RTT adds wire time on top).
		if st.EdgeTotal() > st.RTT {
			t.Fatalf("edge stages %v exceed measured RTT %v", st.EdgeTotal(), st.RTT)
		}
		if st.Network() != st.RTT-st.EdgeTotal() {
			t.Fatalf("Network() = %v, want %v", st.Network(), st.RTT-st.EdgeTotal())
		}
		// Total latency of the recognition bounds the sum of every
		// client-attributed stage.
		total := res.ClientTime + res.EdgeTime + st.Encode
		if sum := st.Local + st.Encode + st.RTT; sum != total {
			t.Fatalf("stage sum %v != total %v", sum, total)
		}
	}
}

// Local exits carry only the local stage: nothing was encoded or sent.
func TestRecognizeStageTimingsOnExit(t *testing.T) {
	c, _, test, done := trainServeClient(t, 1.0) // always exit
	defer done()
	x, _ := test.Sample(0)
	res, err := c.Recognize(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stages
	if !res.Exited {
		t.Fatal("tau=1 must exit locally")
	}
	if st.Local <= 0 {
		t.Fatalf("Local = %v on exit", st.Local)
	}
	if st.Encode != 0 || st.RTT != 0 || st.EdgeTotal() != 0 {
		t.Fatalf("exit populated offload stages: %+v", st)
	}
}

// RecognizeBatch attributes the shared round trip's stages per sample.
func TestRecognizeBatchStageTimings(t *testing.T) {
	c, _, test, done := trainServeClient(t, 0.0)
	defer done()
	const n = 4
	xs, _ := gatherBatch(test, n)
	results, err := c.RecognizeBatch(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		st := res.Stages
		if st.Local <= 0 || st.Local != res.ClientTime {
			t.Fatalf("sample %d: Local = %v, ClientTime = %v", i, st.Local, res.ClientTime)
		}
		if st.Encode <= 0 || st.RTT != res.EdgeTime {
			t.Fatalf("sample %d: offload stages %+v", i, st)
		}
		if st.EdgeForward <= 0 {
			t.Fatalf("sample %d: echoed forward %v", i, st.EdgeForward)
		}
		if st.EdgeTotal() > st.RTT {
			t.Fatalf("sample %d: edge stages %v exceed attributed RTT %v", i, st.EdgeTotal(), st.RTT)
		}
	}
}

// WithTimeout must bound requests without mutating a caller's client.
func TestWithTimeoutCopiesClient(t *testing.T) {
	caller := &http.Client{Timeout: time.Hour}
	c, err := New("http://127.0.0.1:1",
		WithHTTPClient(caller), WithTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if caller.Timeout != time.Hour {
		t.Fatalf("caller's client mutated: timeout %v", caller.Timeout)
	}
	if c.http.Timeout != time.Second {
		t.Fatalf("client timeout %v, want 1s", c.http.Timeout)
	}
	if _, err := New("x", WithTimeout(0)); err == nil {
		t.Fatal("WithTimeout(0) must fail construction")
	}
	if _, err := New("x", WithCodec("zstd")); err == nil {
		t.Fatal("WithCodec with unknown codec must fail construction")
	}
}
