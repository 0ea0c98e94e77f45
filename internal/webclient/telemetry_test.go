package webclient

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"lcrs/internal/edge"
)

// TestDecisionTelemetryEndToEnd drives the full telemetry loop: the
// client records its decisions, piggybacks local exits on the next
// offload, the edge aggregates them, and every offload's request ID can
// be found in the edge journal — the browser→edge→response correlation
// the tentpole promises.
func TestDecisionTelemetryEndToEnd(t *testing.T) {
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
	defer srv.Close()
	c, err := New(srv.URL, WithHTTPClient(srv.Client()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.LoadModel(ctx, "lenet-mnist", "lenet", cfg, 0); err != nil {
		t.Fatal(err)
	}

	// Phase 1 — tau=0: nothing exits, five samples offload with telemetry.
	var offloadIDs []string
	for i := 0; i < 5; i++ {
		x, _ := test.Sample(i)
		res, err := c.Recognize(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		if res.Exited {
			t.Fatal("tau=0 must never exit locally")
		}
		if res.RequestID == "" {
			t.Fatal("offloaded Result must carry its request ID")
		}
		if res.BinaryAgree == nil {
			t.Fatal("offload with telemetry must report agreement")
		}
		if *res.BinaryAgree != (res.BinaryPred == res.Pred) {
			t.Fatalf("agreement verdict inconsistent: %+v", res)
		}
		offloadIDs = append(offloadIDs, res.RequestID)
	}

	// Phase 2 — tau=1: three samples exit locally, nothing on the wire.
	if err := c.SetTau(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		x, _ := test.Sample(5 + i)
		res, err := c.Recognize(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exited || res.Pred != res.BinaryPred || res.RequestID != "" {
			t.Fatalf("tau=1 must exit locally: %+v", res)
		}
	}

	// Phase 3 — one more offload flushes the three exits to the edge.
	if err := c.SetTau(0); err != nil {
		t.Fatal(err)
	}
	x, _ := test.Sample(8)
	res, err := c.Recognize(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	offloadIDs = append(offloadIDs, res.RequestID)

	stats := s.ExitStats()
	if len(stats) != 1 {
		t.Fatalf("exit stats: %+v", stats)
	}
	es := stats[0]
	if es.OffloadedSamples != 6 || es.TelemetryRequests != 6 || es.LocalExits != 3 {
		t.Fatalf("edge decision counters wrong: %+v", es)
	}
	if want := 3.0 / 9.0; es.ExitRate < want-1e-9 || es.ExitRate > want+1e-9 {
		t.Fatalf("exit rate = %v, want %v", es.ExitRate, want)
	}
	if es.Agree+es.Disagree != 6 {
		t.Fatalf("agreement judged on %d of 6 offloads: %+v", es.Agree+es.Disagree, es)
	}
	if es.EntropyCount != 6 {
		t.Fatalf("entropy histogram saw %d offloads, want 6", es.EntropyCount)
	}

	// Every offload's request ID is in the edge journal.
	resp, err := http.Get(srv.URL + "/v1/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var entries []edge.JournalEntry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	journaled := map[string]edge.JournalEntry{}
	for _, e := range entries {
		journaled[e.ID] = e
	}
	for _, id := range offloadIDs {
		e, ok := journaled[id]
		if !ok {
			t.Fatalf("request %s missing from edge journal", id)
		}
		if e.Model != "lenet-mnist" || e.Entropy == nil || e.Agree == nil {
			t.Fatalf("journal entry for %s lacks telemetry detail: %+v", id, e)
		}
	}
}

// A batch offload shares one request: every non-exited sample reports the
// same ID and a per-sample agreement verdict.
func TestBatchTelemetry(t *testing.T) {
	c, _, test, done := trainServeClient(t, 0)
	defer done()
	xs := test.Subset(4).X
	results, err := c.RecognizeBatch(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}
	id := results[0].RequestID
	if id == "" {
		t.Fatal("batch offload must carry a request ID")
	}
	for i, r := range results {
		if r.RequestID != id {
			t.Fatalf("sample %d rode the same request but reports ID %q != %q", i, r.RequestID, id)
		}
		if r.BinaryAgree == nil || *r.BinaryAgree != (r.BinaryPred == r.Pred) {
			t.Fatalf("sample %d agreement wrong: %+v", i, r)
		}
	}
}
