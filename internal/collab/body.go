package collab

// The JSON bodies of the wire. The edge server writes them and the web
// client reads them, so they live beside the frame format they answer:
// InferResponse is the reply to POST /v1/infer/{name}, StageMicros its
// server-stage echo, and ModelInfo one entry of GET /v1/models.

// InferResponse is the JSON reply to an inference request.
type InferResponse struct {
	// Model echoes the model name.
	Model string `json:"model"`
	// Version is the content-addressed model version that computed this
	// answer (also in the X-LCRS-Model-Version response header). During a
	// hot-swap it tells the client exactly which weights served it.
	Version string `json:"version,omitempty"`
	// Pred is the predicted class index of the first sample.
	Pred int `json:"pred"`
	// Preds holds per-sample predictions when the request carried a batch.
	Preds []int `json:"preds,omitempty"`
	// Probs holds the softmax distribution of the first sample.
	Probs []float32 `json:"probs"`
	// ServerMicros is the measured server-side compute time.
	ServerMicros int64 `json:"server_micros"`
	// Codec names the wire codec the request's frame was encoded with.
	Codec string `json:"codec,omitempty"`
	// PayloadBytes is the size of the request frame as received.
	PayloadBytes int64 `json:"payload_bytes,omitempty"`
	// Stages echoes the server-side stage breakdown of this request
	// (read/decode/queue/batch-wait/forward) so clients can reconstruct
	// the paper's Fig. 8-style latency decomposition from measurements.
	Stages *StageMicros `json:"stages,omitempty"`
	// RequestID echoes the correlation ID (also in the X-Request-ID
	// response header): the client's own when it sent one, server-minted
	// otherwise.
	RequestID string `json:"request_id,omitempty"`
	// BinaryAgree reports whether the client's binary-branch top-1
	// (shipped in the v3 telemetry block) matches Pred; absent when the
	// request carried no telemetry.
	BinaryAgree *bool `json:"binary_agree,omitempty"`
	// Tau is the edge-side tau controller's current threshold for this
	// model (WithTauControl): clients apply it to subsequent local exit
	// decisions, closing the control loop without extra requests. Absent
	// when the server runs without a controller or the controller has
	// not adopted a starting threshold yet.
	Tau *float64 `json:"tau,omitempty"`
}

// ModelInfo describes one hosted model in the listing endpoint. Codecs
// advertises the wire codecs the server accepts for offload frames; a
// client picks one (NegotiateCodec in internal/webclient) and encodes the
// conv1 activation with it before POSTing.
type ModelInfo struct {
	Name        string   `json:"name"`
	Arch        string   `json:"arch"`
	Classes     int      `json:"classes"`
	BundleBytes int      `json:"bundle_bytes"`
	InC         int      `json:"in_c"`
	InH         int      `json:"in_h"`
	InW         int      `json:"in_w"`
	Codecs      []string `json:"codecs"`
	// Version is the active (served) version; empty while the model is
	// staged but not yet activated. Versions lists every staged version in
	// registration order — the A/B inventory.
	Version  string   `json:"version,omitempty"`
	Versions []string `json:"versions,omitempty"`
	// HasPack reports whether the active version carries its raw deploy
	// artifact, i.e. GET /v1/pack/{name} will serve it.
	HasPack bool `json:"has_pack,omitempty"`
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
