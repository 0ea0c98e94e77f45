package webclient

import (
	"context"
	"testing"
	"time"

	"lcrs/internal/collab"
)

// TestRecognizeStages pins Result.Stages on both Algorithm 2 paths and the
// copy of the edge's stage echo: an exit carries only the local stage, and
// an offload carries a round trip that bounds the echoed edge stages.
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
			want StageTimes
		}{
			{"nil echo", nil, StageTimes{}},
			{"every stage", &collab.StageMicros{Read: 1, Decode: 2, Queue: 3, BatchWait: 4, Forward: 5}, StageTimes{
				EdgeRead: time.Microsecond, EdgeDecode: 2 * time.Microsecond, EdgeQueue: 3 * time.Microsecond,
				EdgeBatchWait: 4 * time.Microsecond, EdgeForward: 5 * time.Microsecond,
			}},
		} {
			var got StageTimes
			got.mergeEcho(tc.echo)
			if got != tc.want {
				t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
			}
		}
	})
}

// Offloaded recognitions must carry a full measured stage breakdown: the
// client-side stages populated from local clocks, the edge-side stages
// from the server's echo, and the whole decomposition consistent with the
// round trip the client measured (stages can never sum past it).
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
		if st.Local <= 0 {
			t.Fatalf("Local = %v, want > 0", st.Local)
		}
		if st.Encode <= 0 {
			t.Fatalf("Encode = %v, want > 0 on the offload path", st.Encode)
		}
		if st.RTT <= 0 {
			t.Fatalf("RTT = %v, want > 0 on the offload path", st.RTT)
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
