package edge

import (
	"net/http"
	"strings"
)

// Request-scoped spans (DESIGN.md §16). The PR 4 stage clocks already
// time every edge stage of an inference; spans arrange those same
// measurements — plus the client-side stages shipped in the
// X-LCRS-Trace header — on one timeline, so a single request ID yields
// a complete client→edge waterfall from the edge journal alone.
//
// Offsets are cumulative processing time from the start of the
// recognition, not wall-clock timestamps: the edge cannot know the wire
// time between client.encode ending and edge.read starting (only the
// client can derive it, as StageTimes.Network = RTT - EdgeTotal), and
// two clocks' absolute times would disagree anyway. The waterfall
// therefore shows where processing time went, with the network gap
// excluded by construction rather than fudged.

// Span is one stage of a traced recognition on the shared timeline.
type Span struct {
	// Name is "client.local", "client.encode", or "edge.<stage>" with the
	// PR 4 stage names (read, decode, queue, batch_wait, forward, encode,
	// write).
	Name string `json:"name"`
	// StartMicros is the span's offset from the start of the recognition,
	// in cumulative processing time (see package comment).
	StartMicros int64 `json:"start_micros"`
	// DurationMicros is the span's length. Zero-length spans are elided
	// from span lists — a stage that did not run (no batching, cache hit)
	// says nothing.
	DurationMicros int64 `json:"duration_micros"`
}

// buildSpans lays the client stages (from the trace header) and the edge
// stages (from the request's stage trace) on one cumulative timeline.
func buildSpans(clientLocal, clientEncode int64, tr *trace) []Span {
	spans := make([]Span, 0, numStages+2)
	var at int64
	add := func(name string, micros int64) {
		if micros > 0 {
			spans = append(spans, Span{Name: name, StartMicros: at, DurationMicros: micros})
			at += micros
		}
	}
	add("client.local", clientLocal)
	add("client.encode", clientEncode)
	for i := 0; i < numStages; i++ {
		add("edge."+stageNames[i], tr.stages[i].Microseconds())
	}
	return spans
}

// TraceResponse is the /v1/debug/trace/{id} body: the journaled request
// resolved by trace ID plus its span timeline.
type TraceResponse struct {
	TraceID string `json:"trace_id"`
	// Entry is the full journal record (status, model, version, codec,
	// prediction, telemetry) the spans belong to.
	Entry JournalEntry `json:"entry"`
	// Spans is the client→edge waterfall, in timeline order.
	Spans []Span `json:"spans"`
	// TotalMicros is the summed processing time of all spans (the wire
	// gap is client-side knowledge; see the spans package comment).
	TotalMicros int64 `json:"total_micros"`
}

// handleTrace serves GET /v1/debug/trace/{id}: the span tree of the most
// recent journaled request whose trace ID (or request ID — they coincide
// unless the client minted a separate trace ID) matches.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/debug/trace/")
	if id == "" {
		http.Error(w, "trace id required: /v1/debug/trace/{id}", http.StatusBadRequest)
		return
	}
	if s.journal == nil {
		http.Error(w, "request journal disabled", http.StatusNotFound)
		return
	}
	for _, entry := range s.journal.snapshot() { // newest first
		if entry.TraceID != id && entry.ID != id {
			continue
		}
		resp := TraceResponse{TraceID: entry.TraceID, Entry: entry, Spans: entry.Spans}
		if resp.TraceID == "" {
			resp.TraceID = entry.ID
		}
		for _, sp := range entry.Spans {
			resp.TotalMicros += sp.DurationMicros
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	http.Error(w, "no journaled request with trace id "+id+
		" (the journal is a bounded ring; old requests age out)", http.StatusNotFound)
}
