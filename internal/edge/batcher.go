package edge

import (
	"sync"
	"time"

	"lcrs/internal/tensor"
)

// Dynamic cross-request micro-batching. The replica pool (DESIGN.md §7)
// lets many inferences run in parallel, but each request still pays its
// own forward pass, and at batch 1 every FC layer streams its whole weight
// matrix for one row. Under the many-client workload the paper's edge
// server exists for, concurrent requests for the same model can instead
// share one batched ForwardMainRest: its FC layers stream each weight row
// once for up to eight rows, and its convolutions split across samples
// with one fork/join per layer (DESIGN.md §9).
//
// A request that opts into coalescing parks on a channel; the per-model
// batcher fires when the pending sample count reaches the size cap or a
// deadline expires, stacks the queued intermediates into one NCHW
// tensor, checks out a single replica, runs one batched forward, and
// scatters per-sample predictions back to the waiting handlers.
// Batching is off by default (edge.WithBatching enables it) and is
// invisible on the wire: the v1/v2 protocol and response schema are
// unchanged.

// DefaultBatchWait is the coalescing deadline used when WithBatching is
// given a non-positive wait: long enough to catch bursts from concurrent
// clients, short enough to be noise next to a conv-stack forward.
const DefaultBatchWait = 2 * time.Millisecond

// batchRequest is one request's rows of a forward (entry.forward): the
// direct path runs a batch of one, the batcher stacks parked requests.
type batchRequest struct {
	t *tensor.Tensor // normalized batched intermediate (N x shared-out)
	o *inferOutcome  // receives the answer, stage times and coalesced flag
	// parked is when the request entered the coalescing queue (zero on the
	// direct path); done is closed once the forward has filled o.
	parked time.Time
	done   chan struct{}
}

// batcher coalesces concurrent infer requests for one registered model.
type batcher struct {
	e    *entry
	max  int           // sample cap per batched forward
	wait time.Duration // deadline for a non-full batch

	reqCh    chan *batchRequest
	stop     chan struct{}
	stopOnce sync.Once
	// wg tracks the collect loop and every in-flight batch forward, so
	// Close can wait for all parked requests to be answered.
	wg sync.WaitGroup
}

func newBatcher(e *entry, max int, wait time.Duration) *batcher {
	if wait <= 0 {
		wait = DefaultBatchWait
	}
	b := &batcher{
		e: e, max: max, wait: wait,
		reqCh: make(chan *batchRequest),
		stop:  make(chan struct{}),
	}
	b.wg.Add(1)
	go b.loop()
	return b
}

// infer parks the request in the coalescing queue and blocks until its
// share of a batched forward has been filled into o. It reports false
// when the batcher is shutting down; the caller then runs a direct
// forward itself.
func (b *batcher) infer(t *tensor.Tensor, o *inferOutcome) bool {
	r := &batchRequest{t: t, o: o, parked: time.Now(), done: make(chan struct{})}
	select {
	case b.reqCh <- r:
	case <-b.stop:
		return false
	}
	<-r.done
	o.batched = true
	return true
}

// close stops the collect loop, flushes everything already queued, and
// waits for in-flight batch forwards to deliver their results.
func (b *batcher) close() {
	b.stopOnce.Do(func() { close(b.stop) })
	b.wg.Wait()
}

// loop is the collect loop: it accumulates parked requests until the
// sample cap is reached (never passed: a request that would overshoot it
// starts the next batch) or the deadline (armed by the first request of a
// batch) fires, then hands the batch to a runner goroutine and keeps
// collecting. Forward concurrency stays bounded by the replica pool the
// runners check out of.
func (b *batcher) loop() {
	defer b.wg.Done()
	var (
		pending  []*batchRequest
		pendingN int
		timer    *time.Timer
		deadline <-chan time.Time
	)
	flush := func() {
		if timer != nil {
			timer.Stop()
			timer, deadline = nil, nil
		}
		if len(pending) == 0 {
			return
		}
		batch, n := pending, pendingN
		pending, pendingN = nil, 0
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.run(batch, n)
		}()
	}
	// add queues r, first flushing the pending batch if r would push it
	// past the cap: replicas are warmed for batches of at most max
	// samples, and a larger forward would allocate.
	add := func(r *batchRequest) {
		if pendingN+r.t.Dim(0) > b.max {
			flush()
		}
		pending = append(pending, r)
		pendingN += r.t.Dim(0)
	}
	for {
		select {
		case r := <-b.reqCh:
			add(r)
			if pendingN >= b.max {
				flush()
			} else if timer == nil {
				timer = time.NewTimer(b.wait)
				deadline = timer.C
			}
		case <-deadline:
			timer, deadline = nil, nil
			flush()
		case <-b.stop:
			// Drain requests whose send already committed, then flush
			// the remainder immediately — shutdown must not sit out the
			// deadline. Senders that lose the race observe the closed
			// stop channel and fall back to the direct path.
			for {
				select {
				case r := <-b.reqCh:
					add(r)
				default:
					flush()
					return
				}
			}
		}
	}
}

// run executes one coalesced forward and releases its requests.
func (b *batcher) run(batch []*batchRequest, total int) {
	t := batch[0].t
	if len(batch) > 1 {
		// Stack the queued intermediates into one contiguous NCHW batch.
		t = tensor.New(append([]int{total}, t.Shape[1:]...)...)
		off := 0
		for _, r := range batch {
			off += copy(t.Data[off:], r.t.Data)
		}
	}
	b.e.forward(t, batch)
	b.e.stats.Batches.Inc()
	b.e.stats.batchSize.Observe(float64(total))
	for _, r := range batch {
		close(r.done)
	}
}
