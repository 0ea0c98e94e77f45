package edge

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"time"

	"lcrs/internal/collab"
	"lcrs/internal/models"
	"lcrs/internal/slo"
	"lcrs/internal/tensor"
)

// The /v1/infer pipeline (DESIGN.md §10): the edge half of Algorithm 2 as
// explicit stages, each filling one inferOutcome:
//
//	admit      model lookup, version pin, body cap
//	decode     frame parse (plus the content key when the answer cache is on)
//	normalize  shape check against the shared-prefix output
//	answer     answer-cache lookup, or a forward (direct or batched)
//	tau push   the tau controller observes; its tau rides in the response
//	encode     JSON marshalling
//	write      response bytes onto the wire
//
// A failing stage returns its status. observe then reports the finished
// outcome to every surface at once, so /metrics, /v1/stats, /v1/exitstats,
// the SLO windows and the request journal reconcile by construction.

// maxInferBatch bounds a single request's batch so one client cannot pin
// an inference replica arbitrarily long.
const maxInferBatch = 256

// cacheResult is how the answer cache took part in one request.
type cacheResult uint8

const (
	cacheOff  cacheResult = iota // no cache, or the request failed before the lookup
	cacheHit                     // answered from the cache: a direct hit or a single-flight follower
	cacheMiss                    // went to compute
)

// inferOutcome is everything one /v1/infer request produced, filled stage
// by stage and reported once by observe. It lives inside the request's
// reqInfo, so filling it allocates nothing.
type inferOutcome struct {
	start  time.Time // handler start, for the SLO latency window
	status int       // http.StatusOK, or the status of the failing stage
	tr     trace
	// Client-side stage micros from the X-LCRS-Trace header; they open the
	// span timeline.
	clientLocal, clientEncode int64

	samples int
	codec   collab.CodecID
	payload int64 // frame bytes received, once decoded in an accepted codec
	tel     *collab.Telemetry

	ans     cachedAnswer
	micros  int64 // compute time of the forward that produced ans; 0 on a hit
	cache   cacheResult
	hitWait time.Duration // lookup, or single-flight wait, of a cache hit
	// Served through the batcher; its forward also served other requests.
	batched, coalesced bool

	// agree and tau back the pointer fields of the response and journal.
	agree bool
	tau   float64

	// journal is the record the traced middleware writes once the handler
	// returns; observe fills its inference fields.
	journal *JournalEntry
}

// handleInfer serves one offloaded inference through the stages above.
func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	e, ok := s.admit(w, r)
	if !ok {
		return
	}
	// Handler wraps the mux in traced, so every request carries a reqInfo.
	info := reqInfoFrom(r.Context())
	o := &info.out
	o.journal = &info.entry
	// Windowed SLO accounting starts here, inside handleInfer, which is
	// what structurally excludes /metrics scrapes and health probes from
	// SLO evaluation: only inference traffic ever reaches a target.
	o.start = time.Now()
	var err error
	if o.status, err = s.serveInfer(w, r, e, o); err != nil {
		http.Error(w, err.Error(), o.status)
	}
	e.observe(o)
}

// admit resolves the request's serving entry: POST only, a known model,
// the version the client pinned (if any), and a body capped at the
// largest frame the entry accepts. It answers its rejections itself; they
// never reach a model's counters.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (*entry, bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return nil, false
	}
	name := strings.TrimPrefix(r.URL.Path, "/v1/infer/")
	e, ok := s.lookup(name)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown model %q", name), http.StatusNotFound)
		return nil, false
	}
	if pin := r.Header.Get(collab.ModelVersionHeader); pin != "" && pin != e.version {
		// The client pinned the version its binary branch was downloaded
		// from, and a hot-swap has moved the edge past it: the intermediate
		// tensor was computed by a shared prefix that no longer matches the
		// serving weights. Reject so the client re-syncs its bundle instead
		// of fusing mismatched halves.
		w.Header().Set(collab.ModelVersionHeader, e.version)
		http.Error(w, fmt.Sprintf("model %q is now version %s (request pinned %s); revalidate the bundle",
			name, e.version, pin), http.StatusConflict)
		return nil, false
	}
	// The frame decoder would otherwise read up to its 256 MiB element
	// limit before the shape check rejects the tensor; past the cap the
	// decode fails with http.MaxBytesError instead (answered 413).
	r.Body = http.MaxBytesReader(w, r.Body, e.maxBody)
	return e, true
}

// maxInferBody is the body cap of one model's infer requests: the largest
// valid frame, maxInferBatch samples of the shared-prefix output in the raw
// codec (always accepted, and the widest), plus the codec tag, telemetry
// block and cache-hit word of a v4 frame.
func maxInferBody(m *models.Composite) int64 {
	shape := append([]int{maxInferBatch}, m.SharedOutShape()...)
	return collab.FrameBytesFor(shape, collab.Raw) + 4 + collab.TelemetryWireBytes + 4
}

// serveInfer runs the decode → write stages into o and returns the
// request's status, with the error to answer when a stage failed.
func (s *Server) serveInfer(w http.ResponseWriter, r *http.Request, e *entry, o *inferOutcome) (int, error) {
	body := &timingReader{r: r.Body}
	decodeStart := time.Now()
	var (
		t   *tensor.Tensor
		key collab.Key
		err error
	)
	if e.cache != nil {
		// The canonical frame key is folded in while the payload streams
		// through the decoder, so content addressing costs no second pass.
		t, o.codec, o.tel, key, err = collab.ReadFrameTelemetryKeyed(body)
	} else {
		t, o.codec, o.tel, err = collab.ReadFrameTelemetry(body)
	}
	o.tr.stages[stageRead] = body.took
	o.tr.stages[stageDecode] = time.Since(decodeStart) - body.took
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return http.StatusRequestEntityTooLarge, err
		}
		return http.StatusBadRequest, err
	}
	if !s.codecAccepted(o.codec) {
		return http.StatusUnsupportedMediaType,
			fmt.Errorf("codec 0x%02x not enabled on this server", uint8(o.codec))
	}
	o.payload = body.n
	if t, err = normalizeIntermediate(e, t); err != nil {
		return http.StatusBadRequest, err
	}
	o.samples = t.Dim(0)
	e.answer(t, key, o)

	resp := collab.InferResponse{
		Model:        e.name,
		Version:      e.version,
		Pred:         o.ans.pred,
		Preds:        o.ans.preds,
		Probs:        o.ans.probs,
		ServerMicros: o.micros,
		Codec:        codecName(o.codec),
		PayloadBytes: o.payload,
		Stages:       o.tr.echo(),
		RequestID:    o.journal.ID,
	}
	if o.tel != nil {
		o.agree = o.tel.BinaryPred == o.ans.pred
		resp.BinaryAgree = &o.agree
	}
	if e.ctrl != nil {
		// The controller ingests this request's telemetry and the updated
		// tau rides back in the response — before encoding, unlike the §11
		// decision counters, which observe moves after the write. Cache hits
		// feed the controller too: a hit is still a served decision sample.
		if tau, ok := e.ctrl.observe(o.tel, o.samples, o.ans.pred); ok {
			o.tau = tau
			resp.Tau = &o.tau
			if e.cache != nil {
				// Tau-push invalidation: the threshold the answers were
				// computed under just moved (anscache.go, coherence note).
				e.cache.noteTau(tau)
			}
		}
	}

	// Encode and write are traced separately from the JSON helper so the
	// exposition can attribute marshalling vs. wire time.
	encodeStart := time.Now()
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(resp)
	o.tr.stages[stageEncode] = time.Since(encodeStart)
	if err != nil {
		return http.StatusInternalServerError, err
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(collab.ModelVersionHeader, e.version)
	writeStart := time.Now()
	// A failed response write is the client's disconnect, not a serving
	// error; the stage histograms still record the attempt.
	_, _ = w.Write(buf.Bytes())
	o.tr.stages[stageWrite] = time.Since(writeStart)
	return http.StatusOK, nil
}

// codecName names a frame's wire codec ("" for an unknown id).
func codecName(id collab.CodecID) string {
	if c, err := collab.CodecByID(id); err == nil {
		return c.Name()
	}
	return ""
}

// normalizeIntermediate validates a decoded offload tensor against the
// model's shared-prefix output shape and returns it as an explicit batch:
// a single CHW sample gains a leading batch dimension of 1.
func normalizeIntermediate(e *entry, t *tensor.Tensor) (*tensor.Tensor, error) {
	want := e.model.SharedOutShape()
	if t.Rank() == len(want) {
		t = t.Reshape(append([]int{1}, t.Shape...)...)
	}
	if t.Rank() != len(want)+1 || t.Dim(0) > maxInferBatch || !slices.Equal(t.Shape[1:], want) {
		return nil, fmt.Errorf("edge: tensor shape %v does not match intermediate shape %v (batch <= %d)",
			t.Shape, want, maxInferBatch)
	}
	return t, nil
}

// answer fills o's answer: from the answer cache when the frame was
// answered before or is being computed right now, from a forward
// otherwise. A hit (or a single-flight follower) never touches the queue,
// batcher or replica pool; its queue/batch_wait/forward stages stay zero,
// which is exactly what the stage histograms should say about it.
func (e *entry) answer(t *tensor.Tensor, key collab.Key, o *inferOutcome) {
	c := e.cache
	if c == nil {
		e.compute(t, o)
		return
	}
	hitStart := time.Now()
	ans, hit, leader, fl := c.lookup(key)
	if !hit && !leader {
		// An identical frame is being computed right now: wait for the
		// leader's answer instead of duplicating the forward.
		<-fl.done
		ans, hit = fl.ans, fl.ok
	}
	if hit {
		o.ans, o.cache, o.hitWait = ans, cacheHit, time.Since(hitStart)
		return
	}
	o.cache = cacheMiss
	if leader {
		defer func() {
			// Release followers even if the forward panics (complete never
			// set fl.ok); they fall back to computing themselves.
			if !fl.ok {
				c.abort(key, fl)
			}
		}()
	}
	// A follower whose leader died computes without caching.
	e.compute(t, o)
	if leader {
		c.complete(key, fl, o.ans)
	}
}

// compute fills o's answer from a forward: micro-batched when the server
// has batching enabled and the request's own batch leaves room for
// coalescing, a direct forward (a batch of one) otherwise. A request whose
// own batch already fills the cap gains nothing from coalescing (and would
// only add queueing delay), so it goes straight to a replica; so does
// everything when batching is off or the batcher is shutting down.
func (e *entry) compute(t *tensor.Tensor, o *inferOutcome) {
	if b := e.batcher; b != nil && t.Dim(0) < b.max && b.infer(t, o) {
		return
	}
	e.forward(t, []*batchRequest{{t: t, o: o}})
}

// forward is the one compute path of the direct and batched requests: it
// checks a replica out of the pool, runs rest-of-main over t (the
// requests of batch stacked in order) and fills each request's answer,
// stage times and coalesced flag. The logits live in the replica's arena,
// so every answer is extracted before the deferred checkin hands the
// replica back (the next checkout's ResetScratch recycles the storage);
// the defer also returns it when the forward panics. Only each request's
// first softmax row is materialized, the one probability vector its
// response carries.
func (e *entry) forward(t *tensor.Tensor, batch []*batchRequest) {
	queueStart := time.Now()
	e.checkouts.Add(1)
	m := <-e.replicas
	defer func() { e.replicas <- m }()
	queueWait := time.Since(queueStart)
	start := time.Now()
	m.ResetScratch()
	logits := m.ForwardMainRest(t, false)
	elapsed := time.Since(start)
	row := 0
	for _, r := range batch {
		o, n := r.o, r.t.Dim(0)
		o.ans.preds = argmaxRows(logits, row, row+n)
		o.ans.pred = o.ans.preds[0]
		o.ans.probs = make([]float32, logits.Dim(1))
		tensor.SoftmaxRow(o.ans.probs, logits.Row(row))
		o.micros = elapsed.Microseconds()
		o.coalesced = len(batch) > 1
		// The queue and forward times are the batch's, charged whole to
		// every member: each request really did wait (and compute) that
		// long, it just shared the bill.
		if !r.parked.IsZero() {
			o.tr.stages[stageBatchWait] = queueStart.Sub(r.parked)
		}
		o.tr.stages[stageQueue] = queueWait
		o.tr.stages[stageForward] = elapsed
		row += n
	}
	e.stats.ComputeMicros.Add(elapsed.Microseconds())
}

// argmaxRows returns the per-row argmax of logits rows [lo, hi).
func argmaxRows(logits *tensor.Tensor, lo, hi int) []int {
	preds := make([]int, hi-lo)
	for i := lo; i < hi; i++ {
		preds[i-lo] = tensor.ArgmaxRow(logits.Row(i))
	}
	return preds
}

// observe reports one finished infer request to every surface: the
// model's counters and stage histograms (/v1/stats and /metrics), the
// decision telemetry (/v1/exitstats), the version's SLO windows, and the
// journal record and spans the traced middleware writes. Stage, codec and
// decision counts and the journal's inference fields move on success only,
// so every stage histogram counts InferRequests - InferErrors.
func (e *entry) observe(o *inferOutcome) {
	st, win := e.stats, e.win
	failed := o.status != http.StatusOK
	st.InferRequests.Inc()
	if failed {
		st.InferErrors.Inc()
	}
	st.PayloadBytes.Add(o.payload)
	switch o.cache {
	case cacheHit:
		st.CacheHits.Inc()
		st.cacheHit.ObserveDuration(o.hitWait)
	case cacheMiss:
		st.CacheMisses.Inc()
	}
	if o.batched {
		st.BatchedRequests.Inc()
		if o.coalesced {
			st.CoalescedRequests.Inc()
		}
	}
	if win != nil {
		// The version's SLO ring mirrors the counters above and the decision
		// telemetry below in one write; it ignores a failed request's
		// latency, agreement and exit fields.
		r := slo.Request{Latency: time.Since(o.start), Failed: failed,
			CacheHit: o.cache == cacheHit, CacheMiss: o.cache == cacheMiss, Offloaded: int64(o.samples)}
		if o.tel != nil {
			r.Judged, r.Agree, r.LocalExits = true, o.agree, int64(o.tel.LocalExits)
		}
		win.Observe(r)
	}
	j := o.journal
	j.Model, j.Version = e.name, e.version
	if failed {
		return
	}

	if c := st.codec[o.codec]; c != nil {
		c.Inc()
	}
	for i, h := range st.stage {
		h.ObserveDuration(o.tr.stages[i])
	}
	st.decision.observe(o.samples, o.tel, o.ans.pred)
	j.Codec, j.PayloadBytes, j.Samples, j.Pred = codecName(o.codec), o.payload, o.samples, &o.ans.pred
	if o.tel != nil {
		j.Entropy, j.BinaryPred, j.Agree = &o.tel.Entropy, &o.tel.BinaryPred, &o.agree
	}
	j.Spans = buildSpans(o.clientLocal, o.clientEncode, &o.tr)
}
