package webclient

import (
	"time"

	"lcrs/internal/collab"
)

// StageTimes is the client's view of one recognition's latency
// decomposition — the measured counterpart of the paper's Fig. 8 split
// into on-device compute, transfer and edge compute. The client-side
// stages are measured locally; the edge-side stages are echoed by the
// server in InferResponse.Stages, so Network can be derived by
// subtraction instead of guessed from a link model.
type StageTimes struct {
	// Local is the on-device compute: shared conv1, packed binary branch
	// and the entropy exit decision. Always set, even on local exits.
	Local time.Duration
	// Encode is the offload frame encoding (codec-dependent); zero when
	// the sample exited locally.
	Encode time.Duration
	// RTT is the full offload round trip as the client saw it: request
	// write, server processing, response read. Zero on local exits.
	RTT time.Duration

	// Edge-echoed server stages (see internal/edge stage docs). The
	// server's response encode and write stages cannot be echoed — they
	// happen after the echo is serialized — and are visible only in the
	// server's /metrics histograms.
	EdgeRead      time.Duration
	EdgeDecode    time.Duration
	EdgeQueue     time.Duration
	EdgeBatchWait time.Duration
	EdgeForward   time.Duration
}

// EdgeTotal sums the edge-echoed stages: the server time this request can
// account for.
func (s StageTimes) EdgeTotal() time.Duration {
	return s.EdgeRead + s.EdgeDecode + s.EdgeQueue + s.EdgeBatchWait + s.EdgeForward
}

// Network estimates the wire time: the measured round trip minus the
// server's accounted stages. It floors at zero — clock granularity can
// make the echoed stages sum past a LAN round trip.
func (s StageTimes) Network() time.Duration {
	if n := s.RTT - s.EdgeTotal(); n > 0 {
		return n
	}
	return 0
}

// mergeEcho fills the edge-side stages from a server echo, as this
// sample's share of a request that carried n samples; a nil echo
// (pre-tracing server) leaves them zero.
func (s *StageTimes) mergeEcho(sm *collab.StageMicros, n int) {
	if sm == nil {
		return
	}
	share := time.Duration(n)
	s.EdgeRead = time.Duration(sm.Read) * time.Microsecond / share
	s.EdgeDecode = time.Duration(sm.Decode) * time.Microsecond / share
	s.EdgeQueue = time.Duration(sm.Queue) * time.Microsecond / share
	s.EdgeBatchWait = time.Duration(sm.BatchWait) * time.Microsecond / share
	s.EdgeForward = time.Duration(sm.Forward) * time.Microsecond / share
}
