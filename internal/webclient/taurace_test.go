package webclient

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"lcrs/internal/collab"
	"lcrs/internal/edge"
)

// Concurrency contracts of the tau/telemetry plumbing, meant to run under
// -race. A Client runs one recognition at a time (the model's scratch
// buffers are not concurrent-safe — see the Client doc comment), so the
// legitimate concurrency is everything that may land from *other*
// goroutines while a recognition is in flight: SetTau / controller
// pushes, and the lock-free exit-backlog accounting.
//
//   - pendingExits conservation: telemetryFor drains the backlog into a
//     frame; refundExits hands a failed frame's count back. However many
//     goroutines race drains against refunds and new exits, every exit
//     must be counted exactly once — double refund would overreport local
//     exits to the edge, a lost refund would underreport them.
//   - single-threshold decisions: a tau update landing mid-recognition
//     must never mix thresholds within one decision — the exit test and
//     the telemetry frame always see the same value. The oracle is the
//     v3 frame invariant "offload implies entropy >= tau": a mixed
//     decision (exit test at tau=1 keeps the sample local... except the
//     frame stamped tau=0, or the reverse) violates it, because every
//     sample's entropy lies strictly between the two thresholds.

// TestRefundExitsExactlyOnceUnderRace races the drain/refund primitives
// directly: workers repeatedly drain the backlog into telemetry frames
// and refund them (a failed offload's path), while other workers add new
// exits. The backlog must be conserved exactly.
func TestRefundExitsExactlyOnceUnderRace(t *testing.T) {
	c, err := New("http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	const backlog = 7
	c.pendingExits.Add(backlog)

	const drainers, exiters, perWorker = 4, 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < drainers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tel := c.telemetryFor(0.6, 3, 0.5)
				c.refundExits(tel)
			}
		}()
	}
	for w := 0; w < exiters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.pendingExits.Add(1)
			}
		}()
	}
	wg.Wait()
	want := int64(backlog + exiters*perWorker)
	if got := c.pendingExits.Load(); got != want {
		t.Fatalf("pending exits = %d, want %d (drains must refund exactly once)", got, want)
	}
}

// TestRefundExitsOnFailedOffload drives the same discipline end to end:
// a seeded backlog survives a run of failing offloads through Recognize
// untouched, and the one successful offload that follows delivers it to
// the real edge intact — the edge's own counter is the oracle.
func TestRefundExitsOnFailedOffload(t *testing.T) {
	c, m, test, done := trainServeClient(t, 0) // tau=0: nothing exits locally
	defer done()
	ctx := context.Background()

	// A second edge whose infer route always fails: same bundle contract,
	// but every offload pointed here takes the refund path.
	s2, err := edge.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Register("lenet-mnist", m); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer/", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "induced failure", http.StatusServiceUnavailable)
	})
	mux.Handle("/", s2.Handler())
	bad := httptest.NewServer(mux)
	defer bad.Close()

	const backlog = 7
	c.pendingExits.Add(backlog)

	goodBase := c.base
	c.base = bad.URL
	for i := 0; i < 10; i++ {
		x, _ := test.Sample(i % test.Len())
		if _, err := c.Recognize(ctx, x); err == nil {
			t.Fatal("offload against the failing edge must error")
		}
		if got := c.pendingExits.Load(); got != backlog {
			t.Fatalf("failed offload %d left pending exits at %d, want %d", i, got, backlog)
		}
	}

	// One successful offload flushes the intact backlog to the real edge.
	c.base = goodBase
	x, _ := test.Sample(0)
	if _, err := c.Recognize(ctx, x); err != nil {
		t.Fatal(err)
	}
	var stats []edge.ExitStats
	resp, err := http.Get(goodBase + "/v1/exitstats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].LocalExits != backlog {
		t.Fatalf("edge saw %+v, want exactly %d piggybacked local exits", stats, backlog)
	}
}

// TestTauUpdateNeverMixesWithinDecision flips tau between 0 and 1 from a
// second goroutine while recognitions run against a verifying server that
// rejects any telemetry frame violating "offload implies entropy >= tau".
// Every entropy lies strictly between the two thresholds, so a decision
// that offloaded under tau=0 but stamped its frame with tau=1 — mixed
// thresholds — is caught on the wire; client-side, every Result must be
// consistent with its own recorded Tau. Run under -race this also proves
// the tauBits plumbing itself is clean.
func TestTauUpdateNeverMixesWithinDecision(t *testing.T) {
	c, _, test, done := trainServeClient(t, 0)
	defer done()
	ctx := context.Background()

	var violations atomic.Int64
	verify := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _, tel, err := collab.ReadFrameTelemetry(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if tel == nil {
			http.Error(w, "frame lost its telemetry", http.StatusBadRequest)
			return
		}
		if tel.Entropy < tel.Tau {
			violations.Add(1)
			http.Error(w, fmt.Sprintf("mixed decision: offloaded entropy %v below tau %v", tel.Entropy, tel.Tau), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(collab.InferResponse{Pred: 0})
	}))
	defer verify.Close()
	c.base = verify.URL

	stop := make(chan struct{})
	var flips sync.WaitGroup
	flips.Add(1)
	go func() {
		defer flips.Done()
		v := 0.0
		for {
			select {
			case <-stop:
				return
			default:
				v = 1 - v
				if err := c.SetTau(v); err != nil {
					t.Error(err)
					return
				}
				runtime.Gosched()
			}
		}
	}()

	const recognitions = 120
	for i := 0; i < recognitions; i++ {
		x, _ := test.Sample(i % test.Len())
		res, err := c.Recognize(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		if res.Exited != (res.Entropy < res.Tau) {
			t.Fatalf("decision inconsistent with its own recorded tau: %+v", res)
		}
	}
	close(stop)
	flips.Wait()
	if n := violations.Load(); n != 0 {
		t.Fatalf("%d telemetry frames mixed thresholds", n)
	}
}
