package webclient

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"lcrs/internal/collab"
	"lcrs/internal/exitpolicy"
	"lcrs/internal/tensor"
)

// RecognizeBatch runs Algorithm 2 over a batch of samples (NCHW) with one
// coalesced edge request: the shared prefix and binary branch run batched
// locally, confident samples exit, and the remaining intermediate tensors
// travel to the edge in a single round trip instead of one per sample —
// the batching a real AR client does when it scans several detections per
// camera frame.
func (c *Client) RecognizeBatch(ctx context.Context, xs *tensor.Tensor) ([]Result, error) {
	if c.model == nil {
		return nil, fmt.Errorf("webclient: no model loaded")
	}
	if xs.Rank() != 4 {
		return nil, fmt.Errorf("webclient: RecognizeBatch expects NCHW input, got %v", xs.Shape)
	}
	n := xs.Dim(0)
	start := time.Now()
	c.model.ResetScratch()
	shared := c.model.ForwardShared(xs, false)
	logits := c.branch.Forward(shared)
	probs := tensor.Softmax(logits)
	clientTime := time.Since(start) / time.Duration(n) // attributed per sample

	// One tau load for the whole batch: all members of one scan are
	// judged against the same threshold, and the telemetry frame reports
	// the value the decisions actually used.
	tau := c.Tau()
	results := make([]Result, n)
	var pending []int
	for i := 0; i < n; i++ {
		entropy := exitpolicy.NormalizedEntropy(probs.Row(i))
		results[i] = Result{Entropy: entropy, Tau: tau, ClientTime: clientTime,
			BinaryPred: argmaxRow(logits.Row(i)),
			Stages:     StageTimes{Local: clientTime}}
		if exitpolicy.ShouldExit(entropy, tau) && !c.mustFlush() {
			results[i].Exited = true
			results[i].Pred = results[i].BinaryPred
			c.pendingExits.Add(1)
		} else {
			pending = append(pending, i)
		}
	}
	if len(pending) == 0 {
		return results, nil
	}

	// Gather the non-confident intermediates into one tensor.
	sampleShape := shared.Shape[1:]
	per := 1
	for _, d := range sampleShape {
		per *= d
	}
	gather := tensor.New(append([]int{len(pending)}, sampleShape...)...)
	for j, idx := range pending {
		copy(gather.Data[j*per:(j+1)*per], shared.Batch(idx).Data)
	}
	// Telemetry carries the frame's first-sample decision (the documented
	// v3 semantics) plus the piggybacked exit backlog — including this
	// batch's own local exits.
	first := pending[0]
	tel := c.telemetryFor(results[first].Entropy, results[first].BinaryPred, tau)
	encodeStart := time.Now()
	var buf bytes.Buffer
	if err := collab.WriteTensorTelemetry(&buf, gather, c.wireCodec(), tel); err != nil {
		c.refundExits(tel)
		return nil, fmt.Errorf("webclient: encode batch intermediate: %w", err)
	}
	encodePer := time.Since(encodeStart) / time.Duration(len(pending))
	payloadPer := buf.Len() / len(pending)
	id := collab.NewRequestID()
	// The batch's trace parent carries the whole-batch local and encode
	// times (not the per-sample attribution): the edge waterfall shows
	// the request as it crossed the wire, one span timeline per request.
	tp := collab.TraceParent{
		ID:           id,
		LocalMicros:  (clientTime * time.Duration(n)).Microseconds(),
		EncodeMicros: (encodePer * time.Duration(len(pending))).Microseconds(),
	}
	edgeStart := time.Now()
	ir, err := c.edgeInfer(ctx, &buf, id, tp)
	if err != nil {
		c.refundExits(tel)
		if c.FallbackToBinary {
			for _, idx := range pending {
				results[idx].Degraded = true
				results[idx].Pred = results[idx].BinaryPred
			}
			return results, nil
		}
		return nil, err
	}
	if len(ir.Preds) != len(pending) {
		return nil, fmt.Errorf("webclient: edge returned %d predictions for %d samples",
			len(ir.Preds), len(pending))
	}
	edgeTime := time.Since(edgeStart) / time.Duration(len(pending))
	// The shared round trip's stage echo is attributed like the other
	// shared costs: divided evenly across the samples that rode in it.
	var echoPer StageTimes
	echoPer.mergeEcho(ir.Stages)
	div := time.Duration(len(pending))
	echoPer = StageTimes{
		EdgeRead:      echoPer.EdgeRead / div,
		EdgeDecode:    echoPer.EdgeDecode / div,
		EdgeQueue:     echoPer.EdgeQueue / div,
		EdgeBatchWait: echoPer.EdgeBatchWait / div,
		EdgeForward:   echoPer.EdgeForward / div,
	}
	reqID := id
	if ir.RequestID != "" {
		reqID = ir.RequestID
	}
	for j, idx := range pending {
		results[idx].Pred = ir.Preds[j]
		results[idx].EdgeTime = edgeTime
		results[idx].ServerMicros = ir.ServerMicros
		results[idx].PayloadBytes = payloadPer
		results[idx].Stages.Encode = encodePer
		results[idx].Stages.RTT = edgeTime
		results[idx].Stages.EdgeRead = echoPer.EdgeRead
		results[idx].Stages.EdgeDecode = echoPer.EdgeDecode
		results[idx].Stages.EdgeQueue = echoPer.EdgeQueue
		results[idx].Stages.EdgeBatchWait = echoPer.EdgeBatchWait
		results[idx].Stages.EdgeForward = echoPer.EdgeForward
		// The whole batch rode one request; every member shares its ID.
		results[idx].RequestID = reqID
		if tel != nil {
			agree := results[idx].BinaryPred == ir.Preds[j]
			results[idx].BinaryAgree = &agree
		}
	}
	c.applyTauPush(ir.Tau)
	return results, nil
}

func argmaxRow(row []float32) int {
	best, bi := row[0], 0
	for j, v := range row[1:] {
		if v > best {
			best, bi = v, j+1
		}
	}
	return bi
}
