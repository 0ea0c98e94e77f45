package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func at(us int) time.Duration { return time.Duration(us) * time.Microsecond }

// Self time is a span's duration minus what its children cover: children
// that overlap each other count once, a child sticking out of its parent is
// clipped, and a span whose parent was never recorded is a root.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "b", Start: at(30), End: at(60)},     // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: at(90), End: at(120)},    // 20 of it outside root
		{ID: 5, Parent: 3, Name: "b1", Start: at(35), End: at(45)},    // grandchild: only b's business
		{ID: 6, Parent: 99, Name: "orphan", Start: at(0), End: at(7)}, // parent missing
		{ID: 7, Parent: 2, Name: "a0", Start: at(10), End: at(10)},    // empty child
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: at(100 - 50 - 10), // a∪b covers 10..60, c covers 90..100
		2: at(30),
		3: at(30 - 10),
		4: at(30),
		5: at(10),
		6: at(7),
		7: 0,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}

	rows := selfTable(spans)
	if len(rows) != len(spans) {
		t.Fatalf("self table has %d rows, want one per span name (%d)", len(rows), len(spans))
	}
	if rows[0].Name != "root" || rows[0].Count != 1 || rows[0].TotalUs != 100 || rows[0].SelfUs != 40 {
		t.Errorf("root row = %+v", rows[0])
	}
	if got := spanP50Us(rows, "b"); got != 30 {
		t.Errorf("p50 of b = %v µs, want 30", got)
	}
	if got := spanP50Us(rows, "absent"); got != 0 {
		t.Errorf("p50 of an absent span = %v, want 0", got)
	}
}

func TestRecorderIDsAcrossWorkers(t *testing.T) {
	epoch := time.Now()
	a, b := newRecorder(epoch, 0, 4), newRecorder(epoch, 1, 4)
	ra := a.begin(1, 0, "recog")
	rb := b.begin(2, 0, "recog")
	ca := a.begin(1, ra, "child")
	a.end(ca)
	a.end(ra)
	b.end(rb)
	if ra == rb {
		t.Fatalf("two workers handed out the same span ID %d", ra)
	}
	if got := a.get(ca); got.Parent != ra || got.End < got.Start {
		t.Errorf("child span = %+v", got)
	}
}

func TestChromeTraceExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	spans := []span{
		{ID: 1, Trace: 1, Name: "recog", Start: at(0), End: at(50)},
		{ID: 2, Trace: 1, Parent: 1, Name: "edge.forward", Start: at(5), End: at(25), Flag: flagEcho},
		{ID: 3, Trace: 1, Name: "nn.mainrest", Start: at(60), End: at(80), Flag: flagShadow},
	}
	if err := writeChromeTrace(path, "scan_offload", spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
			Cat  string  `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d events, want 3", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents
	if ev[1].Ph != "X" || ev[1].Ts != 5 || ev[1].Dur != 20 || ev[1].Cat != flagEcho {
		t.Errorf("echo event = %+v", ev[1])
	}
	if ev[2].Tid == ev[0].Tid {
		t.Errorf("shadow span shares track %d with the op it shadows", ev[0].Tid)
	}
}
