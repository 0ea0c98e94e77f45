// Package webclient is the browser-side inference library of the paper: it
// downloads a model bundle from the edge server, runs the shared first
// convolutional layer and the binary branch locally (the role the paper's
// JS/WASM library plays inside the mobile web browser), and falls back to
// the edge server with the intermediate tensor when the binary branch's
// normalized entropy is above the exit threshold.
package webclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"lcrs/internal/binary"
	"lcrs/internal/collab"
	"lcrs/internal/exitpolicy"
	"lcrs/internal/modelio"
	"lcrs/internal/models"
	"lcrs/internal/tensor"
)

// Client talks to one edge server and executes the browser side of
// Algorithm 2.
//
// A Client models one browser session and runs one recognition at a time.
// Its model runs out of the arena models.BuildClient installs: each
// Recognize or RecognizeBatch first rewinds it (ResetScratch), so the
// tensors a recognition computes — conv1's output, the branch's
// activations and logits — are valid until the next Recognize or
// RecognizeBatch, and a Result holds none of them. Recognize and
// RecognizeBatch therefore must not run concurrently with each other, nor
// with LoadModel or RevalidateBundle. The arena belongs to the installed
// model, so a newly installed version brings its own and no layer can
// write into the one it replaced. SetTau, Tau and the exit-backlog
// accounting are lock-free and safe to call from other goroutines while a
// recognition is in flight — a mid-flight threshold change applies to the
// next decision, never partially to the current one.
type Client struct {
	base string
	http *http.Client

	modelName string
	model     *models.Composite
	branch    *binary.PackedBranch // bit-packed executor for the binary branch
	// bundleVersion/bundleETag identify the downloaded bundle: the edge's
	// content-addressed model version and the ETag to revalidate with
	// (If-None-Match → 304, zero body bytes, when unchanged).
	bundleVersion string
	bundleETag    string
	// pinVersion stamps every offload with the bundle's version
	// (X-LCRS-Model-Version): the edge then rejects with 409 when a
	// hot-swap has moved past it, instead of fusing this client's binary
	// branch with mismatched main-branch weights. See WithVersionPin.
	pinVersion bool
	// tauBits holds the exit threshold as float64 bits so concurrent
	// recognitions and controller pushes never tear: each decision loads
	// tau exactly once and threads that value through both the exit test
	// and the telemetry frame, so a mid-flight update can change the
	// *next* decision but never mix thresholds within one.
	tauBits   atomic.Uint64
	loadTime  time.Duration
	loadBytes int
	codec     collab.Codec // offload wire codec; nil means raw (v1 frames)
	// noTauUpdates pins the threshold: pushed tau values in infer
	// responses (the edge controller's output) are ignored.
	noTauUpdates bool
	// flushEvery forces an offload once pendingExits reaches it (0 =
	// never). Without it an all-exit regime sends no frames at all: the
	// exit backlog only piggybacks on offloads, so the edge's exit
	// counts — and a tau controller's feedback — would stall exactly
	// when the threshold is most wrong. See WithExitFlush.
	flushEvery int
	// pendingExits counts local exits since the last successful offload;
	// the next telemetry frame piggybacks (and resets) it, giving the edge
	// a live exit rate without any extra requests.
	pendingExits atomic.Int64
	// cache is the session recognition cache (WithSessionCache); nil when
	// disabled (the default). Touched only by recognitions, which run one
	// at a time, so it needs no lock.
	cache *sessionCache
	// revalidateEvery bounds how many consecutive hits one cache entry may
	// serve before the next identical frame is offloaded anyway to refresh
	// the answer (WithRevalidateEvery); 0 never revalidates.
	revalidateEvery int
	// pendingCacheHits counts session-cache hits since the last successful
	// offload, piggybacked on the next telemetry frame (v4) exactly like
	// pendingExits — and refunded the same way when the offload fails.
	pendingCacheHits atomic.Int64

	// FallbackToBinary makes recognitions degrade gracefully: when the
	// edge server is unreachable (or errors), the binary branch's local
	// answer is returned with Result.Degraded set instead of failing the
	// scan. This is the behaviour a production Web AR page wants on a
	// flaky 4G link.
	FallbackToBinary bool
}

// Models fetches the server's hosted model listing.
func (c *Client) Models(ctx context.Context) ([]collab.ModelInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/models", nil)
	if err != nil {
		return nil, fmt.Errorf("webclient: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("webclient: list models: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("webclient: list models: status %s", resp.Status)
	}
	var out []collab.ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("webclient: decode model list: %w", err)
	}
	return out, nil
}

// LoadModel downloads the bundle for name and installs it in an
// inference-only skeleton of the architecture (arch + cfg must match what
// the server registered). tau is the exit threshold to use for Recognize.
func (c *Client) LoadModel(ctx context.Context, name, arch string, cfg models.Config, tau float64) error {
	if tau < 0 || tau > 1 {
		return fmt.Errorf("webclient: tau %v out of [0,1]", tau)
	}
	start := time.Now()
	if _, err := c.fetchBundle(ctx, name, arch, cfg, ""); err != nil {
		return err
	}
	c.tauBits.Store(math.Float64bits(tau))
	c.loadTime = time.Since(start)
	return nil
}

// fetchBundle GETs the bundle for name — conditionally when etag is set —
// and on a 200 installs it as the client's model. It is the one way weights
// reach a Client.
//
// The skeleton (models.BuildClient) holds only what a browser runs: the
// shared prefix and a binary branch whose binary layers are packed from the
// start. It also fixes the exact length of a valid bundle, so a response
// that declares or delivers any other number of bytes is refused before a
// byte is parsed; the body is read into one buffer of that size and its
// packed sections are copied straight into the packed layers. No float
// shadow weight, main-branch layer or gradient is ever built on the client.
//
// A 304, or any failure, leaves the loaded model, its version and ETag and
// the session cache exactly as they were: the Client is only written once
// the new model is whole.
func (c *Client) fetchBundle(ctx context.Context, name, arch string, cfg models.Config, etag string) (installed bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/bundle/"+name, nil)
	if err != nil {
		return false, fmt.Errorf("webclient: %w", err)
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false, fmt.Errorf("webclient: fetch bundle: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified && etag != "" {
		return false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("webclient: fetch bundle %q: status %s", name, resp.Status)
	}

	m, err := models.BuildClient(arch, cfg)
	if err != nil {
		return false, fmt.Errorf("webclient: build %s: %w", arch, err)
	}
	want := modelio.BrowserBundleLen(m)
	if resp.ContentLength >= 0 && resp.ContentLength != int64(want) {
		return false, fmt.Errorf("webclient: bundle %q is %d bytes, a %s bundle for this configuration is %d",
			name, resp.ContentLength, arch, want)
	}
	// One byte of room past the bundle tells a body that ends where it
	// should from one that keeps going, without reading on.
	data := make([]byte, want+1)
	n, err := io.ReadFull(resp.Body, data)
	if err == nil {
		return false, fmt.Errorf("webclient: bundle %q runs past the %d bytes of a %s bundle for this configuration", name, want, arch)
	}
	if err != io.ErrUnexpectedEOF || n != want {
		return false, fmt.Errorf("webclient: read bundle %q: got %d of %d bytes: %w", name, n, want, err)
	}
	if err := modelio.DecodeBrowserBundle(data[:want], m); err != nil {
		return false, fmt.Errorf("webclient: install bundle: %w", err)
	}

	c.modelName = name
	c.model = m
	c.branch = binary.PackBranch(m.Binary) // packed already: the layers are taken, not re-packed
	c.bundleVersion = resp.Header.Get(collab.ModelVersionHeader)
	c.bundleETag = resp.Header.Get("ETag")
	c.loadBytes = want
	if c.cache != nil {
		// Session-cache answers were computed by the replaced version.
		c.cache.clear()
	}
	return true, nil
}

// ModelVersion reports the content-addressed version of the loaded bundle
// (empty against a pre-versioning edge, or before LoadModel).
func (c *Client) ModelVersion() string { return c.bundleVersion }

// RevalidateBundle asks the edge whether the loaded bundle is still
// current, the cheap way: a conditional GET carrying If-None-Match with
// the bundle's ETag. An unchanged bundle costs a 304 with ZERO body bytes
// — the browser idiom this client mirrors, where the HTTP cache
// revalidates instead of re-downloading megabytes of weights. When the
// edge has hot-swapped to a new version, the 200 response carries the new
// bundle; it is installed in place (same arch/config — a redeploy that
// changes the architecture needs a fresh LoadModel) and the session
// recognition cache, if any, is dropped: its answers were computed by
// weights that no longer serve. Returns whether the model changed.
//
// Like LoadModel, this must not run concurrently with Recognize.
func (c *Client) RevalidateBundle(ctx context.Context) (changed bool, err error) {
	if c.model == nil {
		return false, fmt.Errorf("webclient: no model loaded")
	}
	// The loaded model remembers the architecture and configuration it was
	// built with: the next version is built the same way.
	return c.fetchBundle(ctx, c.modelName, c.model.Name, c.model.Cfg, c.bundleETag)
}

// Tau reports the exit threshold the next recognition will use. It starts
// as LoadModel's tau and then tracks pushed controller updates (unless
// WithTauUpdates(false) pinned it).
func (c *Client) Tau() float64 { return math.Float64frombits(c.tauBits.Load()) }

// SetTau replaces the exit threshold for subsequent recognitions. Safe to
// call concurrently with Recognize: in-flight decisions keep the value
// they loaded. NaN and out-of-[0,1] values are rejected.
func (c *Client) SetTau(tau float64) error {
	if math.IsNaN(tau) || tau < 0 || tau > 1 {
		return fmt.Errorf("webclient: tau %v out of [0,1]", tau)
	}
	c.tauBits.Store(math.Float64bits(tau))
	return nil
}

// applyTauPush adopts a controller-pushed threshold from an infer
// response. Invalid values are dropped rather than erroring — a bad push
// must not fail a recognition that already has its answer.
func (c *Client) applyTauPush(tau *float64) {
	if tau == nil || c.noTauUpdates {
		return
	}
	if math.IsNaN(*tau) || *tau < 0 || *tau > 1 {
		return
	}
	c.tauBits.Store(math.Float64bits(*tau))
}

// LoadStats reports the bundle download: wall-clock time and payload size.
func (c *Client) LoadStats() (time.Duration, int) { return c.loadTime, c.loadBytes }

// setCodec selects the wire codec used to encode the conv1 activation on
// offload requests ("raw", "f16", "q8", ...). Construction-time selection
// goes through WithCodec; runtime re-negotiation through NegotiateCodec.
func (c *Client) setCodec(name string) error {
	codec, err := collab.CodecByName(name)
	if err != nil {
		return fmt.Errorf("webclient: %w", err)
	}
	c.codec = codec
	return nil
}

// Codec reports the name of the currently selected wire codec.
func (c *Client) Codec() string { return c.wireCodec().Name() }

// wireCodec returns the selected codec, defaulting to raw.
func (c *Client) wireCodec() collab.Codec {
	if c.codec == nil {
		return collab.Raw
	}
	return c.codec
}

// NegotiateCodec selects preferred if the server advertises it for the
// loaded model, and falls back to raw otherwise. It returns the name of
// the codec that ended up selected. A model must be loaded first (the
// advertisement travels in the model listing metadata).
func (c *Client) NegotiateCodec(ctx context.Context, preferred string) (string, error) {
	if c.modelName == "" {
		return "", fmt.Errorf("webclient: negotiate codec: no model loaded")
	}
	if _, err := collab.CodecByName(preferred); err != nil {
		return "", fmt.Errorf("webclient: %w", err)
	}
	infos, err := c.Models(ctx)
	if err != nil {
		return "", fmt.Errorf("webclient: negotiate codec: %w", err)
	}
	for _, info := range infos {
		if info.Name != c.modelName {
			continue
		}
		for _, name := range info.Codecs {
			if name == preferred {
				if err := c.setCodec(preferred); err != nil {
					return "", err
				}
				return preferred, nil
			}
		}
	}
	if err := c.setCodec("raw"); err != nil {
		return "", err
	}
	return "raw", nil
}

// Result is one recognition outcome.
type Result struct {
	// Pred is the predicted class index.
	Pred int
	// Exited reports whether the binary branch answered locally.
	Exited bool
	// Entropy is the binary branch's normalized entropy.
	Entropy float64
	// Tau is the exit threshold this decision was judged against — the
	// value loaded once at decision time, so Exited == (Entropy < Tau)
	// even when a controller push lands mid-flight.
	Tau float64
	// ClientTime is the measured local compute time.
	ClientTime time.Duration
	// EdgeTime is the measured round trip to the edge (zero when exited).
	EdgeTime time.Duration
	// ServerMicros is the server-reported compute time (zero when exited).
	ServerMicros int64
	// PayloadBytes is the encoded offload frame size actually sent (zero
	// when exited) — the bytes-on-wire the codec selection controls.
	PayloadBytes int
	// Degraded reports that the edge was needed but unreachable and the
	// binary branch's answer was returned instead (FallbackToBinary).
	Degraded bool
	// Stages is the measured latency decomposition: local compute, frame
	// encode, round trip, and the server's echoed per-stage breakdown.
	// ClientTime and EdgeTime above are Stages.Local and Stages.RTT,
	// retained for compatibility.
	Stages StageTimes
	// BinaryPred is the binary branch's top-1, recorded whether or not the
	// sample exited locally (on exit it equals Pred).
	BinaryPred int
	// RequestID is the correlation ID the offload request carried — the
	// key to find this recognition in the edge's access log and
	// /v1/debug/requests journal. Empty when the sample exited locally.
	RequestID string
	// TraceID is the trace identity this offload shipped in X-LCRS-Trace
	// (the request ID, plus the client-side stage timings): the key for
	// the edge's /v1/debug/trace/{id} client→edge waterfall. Empty when
	// the sample exited locally or was served from the session cache.
	TraceID string
	// BinaryAgree is the edge's verdict on whether BinaryPred matched the
	// main branch's answer; nil when the sample exited locally or the
	// request carried no telemetry. On a session-cache hit it is computed
	// locally against the cached answer.
	BinaryAgree *bool
	// CacheHit reports the answer came from the session recognition cache
	// (WithSessionCache): the frame's quantized payload matched a recent
	// offload's, so no request was sent. Combined with Degraded it means a
	// cached answer was served because the edge was unreachable.
	CacheHit bool
	// ModelVersion is the edge-reported version that served this offload
	// (empty on local exits, cache hits, or pre-versioning edges).
	ModelVersion string
	// BundleStale reports that the serving version differs from the one
	// this client's bundle was downloaded from — the edge hot-swapped
	// mid-session. The answer is still the edge's authoritative one; the
	// client should RevalidateBundle before trusting further local exits.
	BundleStale bool
}

// ErrVersionConflict is returned (wrapped) by Recognize and RecognizeBatch
// when the client pinned its bundle version (WithVersionPin) and the edge
// has hot-swapped to a different one: the offload was rejected with 409
// before any forward ran. Recover with RevalidateBundle, then retry.
var ErrVersionConflict = errors.New("webclient: model version conflict")

// Recognize runs Algorithm 2 on one CHW sample: a batch of one.
func (c *Client) Recognize(ctx context.Context, x *tensor.Tensor) (Result, error) {
	var out [1]Result
	if err := c.recognize(ctx, x.Reshape(append([]int{1}, x.Shape...)...), out[:]); err != nil {
		return Result{}, err
	}
	return out[0], nil
}

// RecognizeBatch runs Algorithm 2 over a batch of samples (NCHW), taking
// every step Recognize takes, with one coalesced edge request for the
// samples that neither exit nor hit the session cache — the batching a
// real AR client does when it scans several detections per camera frame.
func (c *Client) RecognizeBatch(ctx context.Context, xs *tensor.Tensor) ([]Result, error) {
	if xs.Rank() != 4 {
		return nil, fmt.Errorf("webclient: RecognizeBatch expects NCHW input, got %v", xs.Shape)
	}
	results := make([]Result, xs.Dim(0))
	if err := c.recognize(ctx, xs, results); err != nil {
		return nil, err
	}
	return results, nil
}

// recognize is the browser half of Algorithm 2 over the NCHW batch xs,
// writing sample i's outcome to out[i]. Each sample exits locally, is
// answered from the session cache, or rides the call's one offload frame.
// Costs the samples share — the local forward, the frame's encode, bytes
// and round trip, the edge's echoed stages — are attributed evenly across
// the samples that shared them; the trace parent carries them whole.
func (c *Client) recognize(ctx context.Context, xs *tensor.Tensor, out []Result) error {
	if c.model == nil {
		return fmt.Errorf("webclient: no model loaded")
	}
	start := time.Now()
	c.model.ResetScratch()
	shared := c.model.ForwardShared(xs, false)
	// The binary branch runs through the bit-packed XNOR executor — the
	// code path the paper's WASM library accelerates in the browser.
	logits := c.branch.Forward(shared)
	probs := tensor.Softmax(logits)
	// One tau load per call: the same value feeds every exit test and the
	// telemetry frame, so a concurrent SetTau/controller push cannot mix
	// thresholds within this call.
	tau := c.Tau()
	// Session-cache keys of the samples that reach the cache.
	var keys []collab.Key
	if c.cache != nil {
		keys = make([]collab.Key, len(out))
	}
	var pending []int
	for i := range out {
		r := &out[i]
		*r = Result{Entropy: exitpolicy.NormalizedEntropy(probs.Row(i)), Tau: tau, BinaryPred: tensor.ArgmaxRow(logits.Row(i))}
		if exitpolicy.ShouldExit(r.Entropy, tau) && !c.mustFlush() {
			r.Exited, r.Pred = true, r.BinaryPred
			c.pendingExits.Add(1)
			continue
		}
		// Session cache: hash the payload this sample would carry and reuse
		// the edge's previous answer for an identical frame. A hit due for
		// revalidation stays pending for a real offload, which refreshes the
		// entry on success (cache.put) — or serves the cached answer anyway
		// if the edge turns out to be unreachable.
		if keys != nil {
			k, err := collab.TensorKey(c.wireCodec(), shared.Batch(i))
			if err != nil {
				return fmt.Errorf("webclient: encode intermediate: %w", err)
			}
			keys[i] = k
			if ent := c.cache.get(k); ent != nil {
				ent.uses++
				if c.revalidateEvery <= 0 || ent.uses < c.revalidateEvery {
					c.pendingCacheHits.Add(1)
					r.CacheHit, r.Pred, r.BinaryAgree = true, ent.pred, agreement(r.BinaryPred, ent.pred)
					continue
				}
			}
		}
		pending = append(pending, i)
	}
	localAll := time.Since(start)
	local := localAll / time.Duration(len(out))
	for i := range out {
		out[i].ClientTime, out[i].Stages.Local = local, local
	}
	if len(pending) == 0 {
		return nil
	}

	// The pending samples travel in one frame: shared itself when all of
	// them offload, else a gather of their rows.
	frame := shared
	if len(pending) < len(out) {
		per := len(shared.Data) / len(out)
		frame = tensor.New(append([]int{len(pending)}, shared.Shape[1:]...)...)
		for j, i := range pending {
			copy(frame.Data[j*per:(j+1)*per], shared.Data[i*per:(i+1)*per])
		}
	}
	// Telemetry carries the frame's first-sample decision (the documented
	// v3 semantics) plus the piggybacked backlog — including this call's
	// own local exits and cache hits.
	first := &out[pending[0]]
	tel := c.telemetryFor(first.Entropy, first.BinaryPred, tau)
	encodeStart := time.Now()
	var buf bytes.Buffer
	if err := collab.WriteTensorTelemetry(&buf, frame, c.wireCodec(), tel); err != nil {
		c.refundExits(tel)
		return fmt.Errorf("webclient: encode intermediate: %w", err)
	}
	encode := time.Since(encodeStart)
	share := time.Duration(len(pending))
	for _, i := range pending {
		out[i].Stages.Encode = encode / share
		out[i].PayloadBytes = buf.Len() / len(pending)
	}
	id := collab.NewRequestID()
	// The trace parent ships the client-side stage timings with the
	// request, so the edge journal alone can render the full client→edge
	// waterfall (/v1/debug/trace/{id}) without a second collection hop.
	tp := collab.TraceParent{ID: id, LocalMicros: localAll.Microseconds(), EncodeMicros: encode.Microseconds()}
	edgeStart := time.Now()
	ir, err := c.edgeInfer(ctx, &buf, id, tp)
	rtt := time.Since(edgeStart) / share
	if err != nil {
		c.refundExits(tel)
		if errors.Is(err, ErrVersionConflict) {
			// Not an outage: the edge is healthy and told us our pinned
			// bundle is outdated. Degrading to the (equally outdated) binary
			// branch or a cached answer would hide exactly the signal the
			// pin exists to surface — return it so the caller revalidates.
			return err
		}
		for _, i := range pending {
			r := &out[i]
			if keys != nil {
				if ent := c.cache.get(keys[i]); ent != nil {
					// Edge outage, but this exact frame has a cached answer —
					// serve it (stale revalidation included) instead of
					// degrading to the binary branch or failing the scan.
					c.pendingCacheHits.Add(1)
					r.CacheHit, r.Degraded, r.Pred, r.PayloadBytes = true, true, ent.pred, 0
					r.BinaryAgree = agreement(r.BinaryPred, ent.pred)
					continue
				}
			}
			if !c.FallbackToBinary {
				return err
			}
			r.Degraded, r.Pred = true, r.BinaryPred
		}
		return nil
	}
	if len(ir.Preds) == 0 {
		// An edge that answers a one-sample frame with Pred alone.
		ir.Preds = []int{ir.Pred}
	}
	if len(ir.Preds) != len(pending) {
		return fmt.Errorf("webclient: edge returned %d predictions for %d samples", len(ir.Preds), len(pending))
	}
	reqID := id
	if ir.RequestID != "" {
		reqID = ir.RequestID
	}
	stale := ir.Version != "" && c.bundleVersion != "" && ir.Version != c.bundleVersion
	for j, i := range pending {
		r := &out[i]
		if keys != nil {
			c.cache.put(keys[i], ir.Preds[j])
		}
		r.Pred, r.ServerMicros = ir.Preds[j], ir.ServerMicros
		r.EdgeTime, r.Stages.RTT = rtt, rtt
		r.Stages.mergeEcho(ir.Stages, len(pending))
		r.RequestID, r.TraceID = reqID, id
		r.BinaryAgree = agreement(r.BinaryPred, r.Pred)
		r.ModelVersion, r.BundleStale = ir.Version, stale
	}
	c.applyTauPush(ir.Tau)
	return nil
}

// agreement is the verdict on whether the binary branch's top-1 matched
// the answer served: the edge's verdict when that answer is the edge's,
// since both sides take top-1 by tensor.ArgmaxRow.
func agreement(binaryPred, pred int) *bool {
	agree := binaryPred == pred
	return &agree
}

// telemetryFor builds the offload frame's decision-telemetry block,
// draining the pending local-exit and session-cache-hit counts into it.
// tau is the threshold the caller's decision actually used (loaded once
// per decision). A caller whose request ultimately fails must hand the
// counts back with refundExits so the edge's decision counters stay
// complete.
func (c *Client) telemetryFor(entropy float64, binaryPred int, tau float64) *collab.Telemetry {
	exits := c.pendingExits.Swap(0)
	if over := exits - collab.MaxLocalExits; over > 0 {
		c.pendingExits.Add(over)
		exits = collab.MaxLocalExits
	}
	hits := c.pendingCacheHits.Swap(0)
	if over := hits - collab.MaxCacheHits; over > 0 {
		c.pendingCacheHits.Add(over)
		hits = collab.MaxCacheHits
	}
	return &collab.Telemetry{
		Entropy: entropy, Tau: tau,
		BinaryPred: binaryPred, LocalExits: int(exits), CacheHits: int(hits),
	}
}

// mustFlush reports whether the exit backlog has reached the configured
// flush limit, forcing the next would-exit decision to offload instead so
// the backlog (and a controller's feedback) reaches the edge.
func (c *Client) mustFlush() bool {
	return c.flushEvery > 0 && c.pendingExits.Load() >= int64(c.flushEvery)
}

// refundExits returns a failed request's piggybacked exit and cache-hit
// counts to their pending pools so the next successful offload reports
// them — exactly once: the counts were drained by telemetryFor's Swap, so
// a refund is the only copy in flight.
func (c *Client) refundExits(tel *collab.Telemetry) {
	if tel.LocalExits > 0 {
		c.pendingExits.Add(int64(tel.LocalExits))
	}
	if tel.CacheHits > 0 {
		c.pendingCacheHits.Add(int64(tel.CacheHits))
	}
}

// edgeInfer posts the intermediate tensor and decodes the edge's reply.
// id, when non-empty, travels as the X-Request-ID correlation header; a
// trace parent with a non-empty ID travels as X-LCRS-Trace, carrying the
// client-side stage timings for the edge's span waterfall.
func (c *Client) edgeInfer(ctx context.Context, body io.Reader, id string, tp collab.TraceParent) (collab.InferResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/infer/"+c.modelName, body)
	if err != nil {
		return collab.InferResponse{}, fmt.Errorf("webclient: %w", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if id != "" {
		req.Header.Set(collab.RequestIDHeader, id)
	}
	if tp.ID != "" {
		req.Header.Set(collab.TraceHeader, tp.Format())
	}
	if c.pinVersion && c.bundleVersion != "" {
		req.Header.Set(collab.ModelVersionHeader, c.bundleVersion)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return collab.InferResponse{}, fmt.Errorf("webclient: edge inference: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		return collab.InferResponse{}, fmt.Errorf("%w: edge serves version %s, bundle is %s",
			ErrVersionConflict, resp.Header.Get(collab.ModelVersionHeader), c.bundleVersion)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return collab.InferResponse{}, fmt.Errorf("webclient: edge inference: status %s: %s", resp.Status, msg)
	}
	var ir collab.InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		return collab.InferResponse{}, fmt.Errorf("webclient: decode inference response: %w", err)
	}
	return ir, nil
}
