package edge

import (
	"io"
	"time"

	"lcrs/internal/collab"
	"lcrs/internal/obs"
)

// Per-request tracing. The paper's headline results are latency
// decompositions (Fig. 8-10 split recognition into on-device compute,
// uplink transfer and edge compute), so the edge server attributes every
// inference to the pipeline stages it actually passes through:
//
//	read        wire bytes consumed from the request body
//	decode      offload frame parsing and dequantization (minus read)
//	queue       waiting for a free inference replica
//	batch_wait  parked in the micro-batcher for peers or the deadline
//	forward     the main-branch-rest forward pass
//	encode      JSON response marshalling
//	write       response bytes onto the wire
//
// Stage durations are observed into per-model obs histograms (exposed at
// GET /metrics) and the pre-response stages are echoed to the client in
// InferResponse.Stages so webclient.Result can reconstruct the full
// client/network/edge breakdown.

// Stage indices of a request trace, in pipeline order.
const (
	stageRead = iota
	stageDecode
	stageQueue
	stageBatchWait
	stageForward
	stageEncode
	stageWrite
	numStages
)

// stageNames are the metric label values, index-aligned with the stage
// constants. These names are part of the /metrics contract; renaming one
// breaks dashboards.
var stageNames = [numStages]string{
	"read", "decode", "queue", "batch_wait", "forward", "encode", "write",
}

// trace accumulates one request's per-stage durations. It lives on the
// handler's stack and costs nothing but a few time.Now calls until the
// final observe; stages that did not run stay zero and are still
// observed, so every stage histogram has the same count and scrapes
// reconcile with the request counters.
type trace struct {
	stages [numStages]time.Duration
}

// echo returns the stage breakdown a response carries (see StageMicros).
func (tr *trace) echo() *StageMicros {
	return &StageMicros{
		Read:      tr.stages[stageRead].Microseconds(),
		Decode:    tr.stages[stageDecode].Microseconds(),
		Queue:     tr.stages[stageQueue].Microseconds(),
		BatchWait: tr.stages[stageBatchWait].Microseconds(),
		Forward:   tr.stages[stageForward].Microseconds(),
	}
}

// StageMicros is the per-stage server time echo carried in InferResponse,
// in microseconds (the resolution ServerMicros already uses). Encode and
// write cannot be included — they happen after this struct is marshalled
// — and are only visible in the server's /metrics histograms.
type StageMicros struct {
	Read      int64 `json:"read_micros"`
	Decode    int64 `json:"decode_micros"`
	Queue     int64 `json:"queue_micros"`
	BatchWait int64 `json:"batch_wait_micros,omitempty"`
	Forward   int64 `json:"forward_micros"`
}

// timingReader counts bytes and wall-clock time spent in Read calls, so
// the decode stage can be split into wire read vs. frame parsing without
// buffering the body.
type timingReader struct {
	r    io.Reader
	n    int64
	took time.Duration
}

func (c *timingReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.r.Read(p)
	c.took += time.Since(start)
	c.n += int64(n)
	return n, err
}

// metric names of the edge exposition, one place so tests and docs agree.
const (
	metricInferRequests   = "lcrs_edge_infer_requests_total"
	metricInferErrors     = "lcrs_edge_infer_errors_total"
	metricBundleDownloads = "lcrs_edge_bundle_downloads_total"
	metricPayloadBytes    = "lcrs_edge_payload_bytes_total"
	metricBatchedRequests = "lcrs_edge_batched_requests_total"
	metricCoalescedReqs   = "lcrs_edge_coalesced_requests_total"
	metricBatches         = "lcrs_edge_batches_total"
	metricBatchSize       = "lcrs_edge_batch_size"
	metricStageSeconds    = "lcrs_edge_stage_seconds"
	metricCodecRequests   = "lcrs_edge_codec_requests_total"
)

// newModelStats resolves one model's metric handles in reg. Get-or-create
// semantics mean re-registering a model name continues its series, which
// is what Prometheus counters want (they must never go backwards).
func newModelStats(reg *obs.Registry, model string) *modelStats {
	l := obs.Label{Key: "model", Value: model}
	st := &modelStats{
		InferRequests:     reg.Counter(metricInferRequests, "Inference requests received, including failed ones.", l),
		InferErrors:       reg.Counter(metricInferErrors, "Inference requests rejected (bad frame, shape or codec).", l),
		BundleDownloads:   reg.Counter(metricBundleDownloads, "Browser bundle downloads.", l),
		PayloadBytes:      reg.Counter(metricPayloadBytes, "Offload frame bytes received on the wire.", l),
		BatchedRequests:   reg.Counter(metricBatchedRequests, "Requests served through the micro-batching path.", l),
		CoalescedRequests: reg.Counter(metricCoalescedReqs, "Batched requests that shared a forward with at least one peer.", l),
		Batches:           reg.Counter(metricBatches, "Coalesced forward passes executed.", l),
		batchSize:         reg.Histogram(metricBatchSize, "Samples per coalesced forward.", batchSizeBounds(), l),
		CacheHits: reg.Counter(metricCacheHits,
			"Infer requests answered from the edge answer cache without a replica checkout (direct hits and single-flight followers).", l),
		CacheMisses: reg.Counter(metricCacheMisses,
			"Infer requests that missed the answer cache and went to compute.", l),
		CacheEvictions: reg.Counter(metricCacheEvictions,
			"Answer-cache entries dropped: LRU pressure or tau-push invalidation.", l),
		cacheHit: reg.Histogram(metricCacheHitSeconds,
			"Latency of answer-cache hits (lookup for direct hits, the shared wait for followers).",
			obs.LatencyBuckets(), l),
	}
	for i := range st.stage {
		st.stage[i] = reg.Histogram(metricStageSeconds,
			"Per-stage latency of served inferences (see DESIGN.md section 10).",
			obs.LatencyBuckets(), l, obs.Label{Key: "stage", Value: stageNames[i]})
	}
	st.codec = make(map[collab.CodecID]*obs.Counter, len(collab.Codecs()))
	for _, c := range collab.Codecs() {
		st.codec[c.ID()] = reg.Counter(metricCodecRequests,
			"Served inference frames by wire codec.",
			l, obs.Label{Key: "codec", Value: c.Name()})
	}
	st.decision = newDecisionStats(reg, model)
	return st
}

// batchSizeBounds mirrors batchHistBounds as float64 histogram bounds.
func batchSizeBounds() []float64 {
	bounds := make([]float64, len(batchHistBounds))
	for i, b := range batchHistBounds {
		bounds[i] = float64(b)
	}
	return bounds
}
