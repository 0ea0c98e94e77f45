package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"lcrs/internal/collab"
	"lcrs/internal/edge"
	"lcrs/internal/exitpolicy"
	"lcrs/internal/models"
	"lcrs/internal/tensor"
)

// The traced pass. After the untraced rounds, one more round runs a
// hand-stepped copy of webclient.Recognize built only from public calls, in
// Recognize's order, with a span around each call. The edge's echoed stage
// times become children of the round-trip span; the two pieces of server
// work that have no outside boundary (frame decode, rest-of-main forward)
// are re-run in-process after the op as flagged shadow spans. The pass
// counts only if every op took the same path, gave the same answer and sent
// the same number of bytes as the untraced run did on the same frame.

// tracedSession is the per-session state Recognize keeps, owned here.
type tracedSession struct {
	pendingExits, pendingHits int
	cache                     map[collab.Key]int32 // stands in for the unexported session cache
}

// tracedPass is what one traced round yields.
type tracedPass struct {
	spans     []span
	rootP50Ms float64
	valid     bool
	mismatch  string // first difference from the untraced run, when !valid
}

// runTraced replays round 0 with spans on and compares it with untraced,
// the outcomes the untraced run recorded for that round.
func (e *env) runTraced(untraced []outcome) (*tracedPass, error) {
	if e.def.sessionCache {
		// The edge's answer cache starts as cold as it was for round 0.
		if err := e.srv.Activate(modelName, e.version); err != nil {
			return nil, fmt.Errorf("re-activate: %w", err)
		}
	}
	ops := e.rounds[0]
	got := make([]outcome, len(ops))
	epoch := time.Now()
	var recs []*recorder
	var firstErr error
	if e.def.burst {
		recs, firstErr = e.tracedBurst(epoch, ops, got)
	} else {
		rec := newRecorder(epoch, 0, 12*len(ops))
		recs = []*recorder{rec}
		serving := e.model.CloneForServing()
		serving.WarmMainRest(1)
		sess := make([]*tracedSession, e.def.sessions)
		for i := range sess {
			sess[i] = &tracedSession{cache: map[collab.Key]int32{}}
		}
		for i, o := range ops {
			out, err := e.tracedRecognize(rec, i+1, sess[o.client], serving, e.frames[o.frame])
			if err != nil {
				firstErr = err
				break
			}
			got[i] = out
		}
	}
	if firstErr != nil {
		return nil, fmt.Errorf("traced pass: %w", firstErr)
	}
	tp := &tracedPass{valid: true}
	var roots []time.Duration
	for _, r := range recs {
		tp.spans = append(tp.spans, r.spans...)
	}
	for _, s := range tp.spans {
		if s.Name == spanRoot {
			roots = append(roots, s.dur())
		}
	}
	tp.rootP50Ms = quantileMs(roots[warmup(len(roots)):], 0.5)
	for i := range ops {
		if got[i] != untraced[i] {
			tp.valid = false
			tp.mismatch = fmt.Sprintf("op %d: traced %+v, untraced %+v", i, got[i], untraced[i])
			break
		}
	}
	return tp, nil
}

// Span names: the layer that did the work, then what it did.
const (
	spanRoot      = "recog"
	spanShared    = "nn.shared"
	spanBranch    = "binary.branch"
	spanDecide    = "exitpolicy.decide"
	spanKey       = "collab.key"
	spanEncode    = "collab.encode"
	spanRoundtrip = "edge.roundtrip"
	spanDecode    = "collab.decode" // shadow
	spanMainRest  = "nn.mainrest"   // shadow
)

// echoed stage spans, in pipeline order.
var echoSpans = [...]string{"edge.read", "edge.decode", "edge.queue", "edge.batch_wait", "edge.forward"}

func echoMicros(sm *edge.StageMicros) [len(echoSpans)]int64 {
	return [...]int64{sm.Read, sm.Decode, sm.Queue, sm.BatchWait, sm.Forward}
}

// tracedRecognize is one op of the traced pass: the stepped Recognize under
// a root span, then the shadow spans when the op offloaded.
func (e *env) tracedRecognize(rec *recorder, trace int, st *tracedSession, serving *models.Composite, x *tensor.Tensor) (outcome, error) {
	root := rec.begin(trace, 0, spanRoot)
	out, frame, err := e.steppedRecognize(rec, trace, root, st, x)
	rec.end(root)
	if err == nil && frame != nil {
		e.shadow(rec, trace, serving, frame)
	}
	return out, err
}

// steppedRecognize is Recognize, stepped by hand. It returns the frame it
// sent when the op offloaded.
func (e *env) steppedRecognize(rec *recorder, trace, root int, st *tracedSession, x *tensor.Tensor) (outcome, []byte, error) {
	batch := x.Reshape(append([]int{1}, x.Shape...)...)

	s := rec.begin(trace, root, spanShared)
	shared := e.ref.ForwardShared(batch, false)
	rec.end(s)

	s = rec.begin(trace, root, spanBranch)
	logits := e.branch.Forward(shared)
	rec.end(s)

	s = rec.begin(trace, root, spanDecide)
	probs := tensor.Softmax(logits)
	entropy := exitpolicy.NormalizedEntropy(probs.Row(0))
	binPred := logits.Argmax()
	exit := exitpolicy.ShouldExit(entropy, e.tau)
	rec.end(s)
	if exit {
		st.pendingExits++
		return outcome{kind: kindExit, pred: int32(binPred)}, nil, nil
	}

	var key collab.Key
	if e.def.sessionCache {
		s = rec.begin(trace, root, spanKey)
		k, err := collab.TensorKey(e.codec, shared)
		rec.end(s)
		if err != nil {
			return outcome{}, nil, err
		}
		key = k
		if pred, ok := st.cache[key]; ok {
			st.pendingHits++
			return outcome{kind: kindHit, pred: pred}, nil, nil
		}
	}

	tel := &collab.Telemetry{Entropy: entropy, Tau: e.tau, BinaryPred: binPred,
		LocalExits: st.pendingExits, CacheHits: st.pendingHits}
	st.pendingExits, st.pendingHits = 0, 0
	s = rec.begin(trace, root, spanEncode)
	var buf bytes.Buffer
	err := collab.WriteTensorTelemetry(&buf, shared, e.codec, tel)
	rec.end(s)
	if err != nil {
		return outcome{}, nil, err
	}
	frame := buf.Bytes()

	ir, err := tracedPost(rec, trace, root, e.ts.Client(), e.url, frame)
	if err != nil {
		return outcome{}, nil, err
	}
	if e.def.sessionCache {
		st.cache[key] = int32(ir.Pred)
	}
	return outcome{kind: kindOffload, pred: int32(ir.Pred), payload: int32(len(frame))}, frame, nil
}

// tracedPost is the offload: POST, read the reply (the round-trip span),
// then parse it and lay the echoed edge stages inside the round trip,
// centred, since the echo says how long each took but not when.
func tracedPost(rec *recorder, trace, parent int, hc *http.Client, url string, frame []byte) (edge.InferResponse, error) {
	var ir edge.InferResponse
	id := collab.NewRequestID()
	rt := rec.begin(trace, parent, spanRoundtrip)
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, url, bytes.NewReader(frame))
	if err != nil {
		return ir, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(collab.RequestIDHeader, id)
	req.Header.Set(collab.TraceHeader, collab.TraceParent{ID: id}.Format())
	resp, err := hc.Do(req)
	if err != nil {
		return ir, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.end(rt)
	if err != nil {
		return ir, err
	}
	if resp.StatusCode != http.StatusOK {
		return ir, fmt.Errorf("edge: status %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &ir); err != nil {
		return ir, err
	}
	if ir.Stages != nil {
		rtSpan := rec.get(rt)
		var sum time.Duration
		stages := echoMicros(ir.Stages)
		for _, m := range stages {
			sum += time.Duration(m) * time.Microsecond
		}
		at := rtSpan.Start
		if gap := rtSpan.dur() - sum; gap > 0 {
			at += gap / 2
		}
		for i, m := range stages {
			d := time.Duration(m) * time.Microsecond
			rec.add(trace, rt, echoSpans[i], at, at+d, flagEcho)
			at += d
		}
	}
	return ir, nil
}

// shadow re-runs, after the op, the server work the edge does on frame:
// decode with the key folded in (what an answer-cache edge runs; the plain
// decode otherwise) and the rest-of-main forward on a serving clone.
func (e *env) shadow(rec *recorder, trace int, serving *models.Composite, frame []byte) {
	start := time.Since(rec.epoch)
	var t *tensor.Tensor
	var err error
	if e.def.sessionCache {
		t, _, _, _, err = collab.ReadFrameTelemetryKeyed(bytes.NewReader(frame))
	} else {
		t, _, _, err = collab.ReadFrameTelemetry(bytes.NewReader(frame))
	}
	mid := time.Since(rec.epoch)
	rec.add(trace, 0, spanDecode, start, mid, flagShadow)
	if err != nil {
		return
	}
	serving.ResetScratch()
	serving.ForwardMainRest(t, false)
	rec.add(trace, 0, spanMainRest, mid, time.Since(rec.epoch), flagShadow)
}

// tracedBurst is edge_burst with spans: one recorder per connection.
func (e *env) tracedBurst(epoch time.Time, ops []op, got []outcome) ([]*recorder, error) {
	recs := make([]*recorder, e.opt.conns)
	errs := make([]error, e.opt.conns)
	for w := range recs {
		recs[w] = newRecorder(epoch, w, 8*len(ops)/len(recs)+8)
	}
	fanOut(e.opt.conns, len(ops), func(w, i int) {
		if errs[w] != nil {
			return
		}
		rec, frame := recs[w], e.bodies[ops[i].frame]
		root := rec.begin(i+1, 0, spanRoot)
		ir, err := tracedPost(rec, i+1, root, e.hc, e.url, frame)
		rec.end(root)
		if err != nil {
			errs[w] = err
			return
		}
		got[i] = outcome{kind: kindOffload, pred: int32(ir.Pred), payload: int32(len(frame))}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Shadow spans after the round, so they do not compete with requests
	// in flight.
	serving := e.model.CloneForServing()
	serving.WarmMainRest(1)
	for i, o := range ops {
		e.shadow(recs[0], i+1, serving, e.bodies[o.frame])
	}
	return recs, nil
}
