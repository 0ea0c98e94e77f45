package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lcrs/internal/edge"
	"lcrs/internal/webclient"
)

// workloadDef is one of the benchmark's workloads. All four are closed
// loops: a session scans its next frame only after the previous answer, and
// edge_burst keeps no more requests in flight than it has connections.
type workloadDef struct {
	name string
	why  string
	// opsPerRound sizes a round to well under a second on the 2-core
	// reference box — short, so that many rounds fit a run and some of them
	// fall between the host's noisy spells. scan_stream's follows from its
	// stream cut instead.
	opsPerRound int

	sessions      int     // web clients opened at set-up
	burst         bool    // ops POST pre-encoded frames; the one session only measures load_ms
	tau           float64 // fixed exit threshold
	exitRate      float64 // > 0: screen the threshold for this exit rate over the inputs
	codec         string  // offload codec; "" is raw
	sessionCache  bool    // sessions (and the edge) cache answers, so a pass starts cold
	clientOptions []webclient.Option
	edgeOptions   func(options) []edge.Option
	inputs        func(*env) error
}

func noEdgeOptions(options) []edge.Option { return nil }

var workloads = []*workloadDef{
	{
		name:        "scan_exit",
		why:         "tau=1: every frame is answered on the device by conv1 + packed binary branch + entropy test; binary and nn(shared) do all the work, collab, edge and HTTP none",
		opsPerRound: 200, sessions: 1, tau: 1,
		edgeOptions: noEdgeOptions, inputs: cycleInputs,
	},
	{
		name:        "scan_offload",
		why:         "tau=0: every frame takes the full Alg. 2 slow path, one request in flight; raw codec, no caches, no batching, so rest-of-main at batch 1 and the wire dominate and binary is a small share",
		opsPerRound: 50, sessions: 1, tau: 0,
		edgeOptions: noEdgeOptions, inputs: cycleInputs,
	},
	{
		name:     "scan_stream",
		why:      "hold-and-drift camera streams at a screened 50% exit rate, q8 codec, session cache and edge answer cache: the same layers used for hashing, quantizing and cache hits instead of raw copies and forwards",
		sessions: 2, exitRate: 0.5,
		codec: "q8", sessionCache: true,
		clientOptions: []webclient.Option{
			webclient.WithCodec("q8"), webclient.WithSessionCache(64), webclient.WithTauUpdates(false),
		},
		edgeOptions: func(options) []edge.Option { return []edge.Option{edge.WithAnswerCache(256)} },
		inputs:      streamInputs,
	},
	{
		name:        "edge_burst",
		why:         "min(nproc,4) connections POST pre-encoded conv1 frames straight at the edge with batching on: batcher, replica pool and GEMM at batch C do all the work, binary none",
		opsPerRound: 64, sessions: 1, burst: true,
		edgeOptions: func(o options) []edge.Option {
			return []edge.Option{edge.WithReplicas(o.conns), edge.WithBatching(o.conns, 2*time.Millisecond)}
		},
		inputs: func(e *env) error {
			tr := &http.Transport{MaxIdleConnsPerHost: e.opt.conns, MaxConnsPerHost: e.opt.conns}
			e.hc = &http.Client{Transport: tr, Timeout: 30 * time.Second}
			return cycleInputs(e)
		},
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runRound executes one round's ops and checks every answer against the
// reference. It is the body measureRound times.
func (e *env) runRound(ops []op, rec *roundRec) {
	if e.def.burst {
		e.runBurst(ops, rec)
		return
	}
	ctx := context.Background()
	for i := range ops {
		o := &ops[i]
		t0 := time.Now()
		res, err := e.sess[o.client].Recognize(ctx, e.frames[o.frame])
		rec.lat[i] = time.Since(t0)
		if err != nil {
			rec.failed++
			continue
		}
		rec.got[i] = resultOutcome(res)
		if !rec.got[i].matches(o.want) {
			rec.failed++
		}
	}
}

func resultOutcome(res webclient.Result) outcome {
	out := outcome{kind: kindOffload, pred: int32(res.Pred), payload: int32(res.PayloadBytes)}
	switch {
	case res.Degraded:
		// A fallback answer is a failed offload, whatever it predicted.
		out.pred = -1
	case res.Exited:
		out.kind = kindExit
	case res.CacheHit:
		out.kind = kindHit
	}
	return out
}

// matches is the correctness gate for one op: same path, same answer.
// Payload sizes are compared only between the traced and untraced passes.
func (o outcome) matches(want outcome) bool {
	return o.kind == want.kind && o.pred == want.pred
}

// fanOut runs do(worker, i) for every i in [0, n) on workers goroutines,
// each taking the next index not yet taken: workers requests in flight, no
// more.
func fanOut(workers, n int, do func(worker, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				do(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// runBurst keeps conns requests in flight: each connection POSTs the next
// op's pre-encoded frame and reads the whole reply. Latency is request →
// body read; the JSON is parsed after the clock stops.
func (e *env) runBurst(ops []op, rec *roundRec) {
	var failed atomic.Int64
	fanOut(e.opt.conns, len(ops), func(_, i int) {
		frame := e.bodies[ops[i].frame]
		t0 := time.Now()
		body, err := e.post(frame)
		rec.lat[i] = time.Since(t0)
		var ir edge.InferResponse
		if err == nil {
			err = json.Unmarshal(body, &ir)
		}
		if err != nil {
			failed.Add(1)
			return
		}
		rec.got[i] = outcome{kind: kindOffload, pred: int32(ir.Pred), payload: int32(len(frame))}
		if !rec.got[i].matches(ops[i].want) {
			failed.Add(1)
		}
	})
	rec.failed += int(failed.Load())
}

// post sends one frame to the infer endpoint and returns the reply body.
func (e *env) post(frame []byte) ([]byte, error) {
	resp, err := e.hc.Post(e.url, "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("edge: status %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}
