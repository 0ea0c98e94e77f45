package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Spans of the traced pass. They are recorded from this package only,
// around calls into each layer's public functions; they stay in memory
// until the run ends and are then written as Chrome trace-event JSON.

// Span flags.
const (
	flagEcho   = "echo"   // duration echoed by the edge in InferResponse.Stages, placed inside the round trip
	flagShadow = "shadow" // the same work re-run in-process, for a layer with no outside boundary in the server
)

// span is one timed interval. Spans of one op share Trace; Parent is the ID
// of the span that caused this one, 0 for a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Trace  int           `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Flag   string        `json:"flag,omitempty"`
	Worker int           `json:"worker"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder collects the spans of one goroutine; recorders of one pass share
// an epoch and are concatenated afterwards.
type recorder struct {
	epoch  time.Time
	worker int
	spans  []span
}

// idStride keeps span IDs of different workers apart.
const idStride = 1 << 24

func newRecorder(epoch time.Time, worker, capHint int) *recorder {
	return &recorder{epoch: epoch, worker: worker, spans: make([]span, 0, capHint)}
}

// begin opens a span and returns its ID; end closes it.
func (r *recorder) begin(trace, parent int, name string) int {
	return r.add(trace, parent, name, time.Since(r.epoch), 0, "")
}

func (r *recorder) end(id int) {
	r.spans[id-r.worker*idStride-1].End = time.Since(r.epoch)
}

func (r *recorder) get(id int) span { return r.spans[id-r.worker*idStride-1] }

// add records a finished span with explicit bounds.
func (r *recorder) add(trace, parent int, name string, start, end time.Duration, flag string) int {
	id := r.worker*idStride + len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start, End: end, Flag: flag, Worker: r.worker})
	return id
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover. Overlapping children are counted
// once, children are clipped to the parent, and a span whose parent is not
// in the set is a root.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// selfRow is one line of a workload's self-time table.
type selfRow struct {
	Name    string  `json:"name"`
	Flag    string  `json:"flag,omitempty"`
	Count   int     `json:"count"`
	TotalUs float64 `json:"total_us"`
	SelfUs  float64 `json:"self_us"`
	// P50Us is the median duration of one span of this name.
	P50Us float64 `json:"p50_us"`
}

// selfTable aggregates spans by name, in order of first appearance.
func selfTable(spans []span) []selfRow {
	self := selfTimes(spans)
	idx := map[string]int{}
	durs := map[string][]time.Duration{}
	var rows []selfRow
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(rows)
			idx[s.Name] = i
			rows = append(rows, selfRow{Name: s.Name, Flag: s.Flag})
		}
		rows[i].Count++
		rows[i].TotalUs += us(s.dur())
		rows[i].SelfUs += us(self[s.ID])
		durs[s.Name] = append(durs[s.Name], s.dur())
	}
	for i := range rows {
		rows[i].P50Us = quantileUs(durs[rows[i].Name], 0.5)
	}
	return rows
}

// spanP50Us is the median duration of the spans called name, in µs; 0 when
// the pass recorded none.
func spanP50Us(rows []selfRow, name string) float64 {
	for _, r := range rows {
		if r.Name == name {
			return r.P50Us
		}
	}
	return 0
}

// writeChromeTrace writes spans as Chrome trace-event JSON (complete "X"
// events; opens in Perfetto or chrome://tracing). One track per worker;
// shadow spans get a track of their own because they run after the op they
// shadow.
func writeChromeTrace(path, workload string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		tid, cat := s.Worker, "span"
		if s.Flag != "" {
			cat = s.Flag
		}
		if s.Flag == flagShadow {
			tid += 100
		}
		events = append(events, event{
			Name: s.Name, Cat: cat, Ph: "X", Ts: us(s.Start), Dur: us(s.dur()), Pid: 1, Tid: tid,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "trace": s.Trace},
		})
	}
	data, err := json.Marshal(map[string]any{
		"displayTimeUnit": "ms",
		"otherData":       map[string]string{"workload": workload},
		"traceEvents":     events,
	})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
