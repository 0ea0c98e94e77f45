// Package edgesim simulates LCRS without serving it, on the cost models of
// internal/device and internal/netsim. It holds two simulators:
//
//   - Runtime runs the paper's Algorithm 2 in process for one device: the
//     browser executes the shared first convolutional layer and the binary
//     branch; when the normalized entropy of the binary softmax clears the
//     threshold the sample exits locally, otherwise the intermediate tensor
//     travels to the edge server, which runs the rest of the main branch.
//     Predictions come from the real network, stage latencies from the cost
//     models, and model-loading cost is amortized over a session exactly as
//     the paper's 100-sample averages are. ExpectedLatency and
//     ExpectedLatencyTwoBranch give the same costs in closed form for the
//     design sweeps of the paper's §IV-D.
//   - Run is a discrete-event simulator for an edge server shared by many
//     concurrent Web AR clients. The paper's introduction motivates LCRS
//     with exactly this scenario: offloading every recognition to the edge
//     ("edge-only") melts the server under concurrency, while LCRS's binary
//     branch absorbs most requests on the browsers and ships only the
//     low-confidence remainder. The simulator quantifies that: a
//     single-queue FIFO server with deterministic per-request service
//     time, Poisson request arrivals per client, and seeded randomness for
//     reproducibility.
package edgesim

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"time"

	"lcrs/internal/netsim"
	"lcrs/internal/tensor"
)

// Workload describes one simulated scenario.
type Workload struct {
	// Clients is the number of concurrent AR sessions.
	Clients int
	// RequestRate is each client's recognition attempts per second.
	RequestRate float64
	// OffloadFraction is the share of attempts that reach the edge
	// (1 for edge-only; 1-exitRate for LCRS).
	OffloadFraction float64
	// ServiceTime is the server compute per offloaded request.
	ServiceTime time.Duration
	// Link and PayloadBytes, when both set, model the uplink: each
	// offloaded request pays the transfer of PayloadBytes over Link before
	// it can queue, so sojourn reflects the wire codec's frame size (the
	// transfer occupies the client's radio, not the server, so it does not
	// add to server busy time).
	Link *netsim.Link
	// PayloadBytes is the encoded offload frame size per request.
	PayloadBytes int64
	// Duration is the simulated wall-clock span.
	Duration time.Duration
	// Seed drives arrival randomness.
	Seed int64
}

// TransferTime returns the per-request uplink cost of the workload: zero
// without a link profile, otherwise PayloadBytes over the link's uplink.
func (w Workload) TransferTime() time.Duration {
	if w.Link == nil || w.PayloadBytes <= 0 {
		return 0
	}
	return w.Link.UpTime(w.PayloadBytes)
}

// Validate reports nonsensical workloads.
func (w Workload) Validate() error {
	if w.Clients <= 0 {
		return fmt.Errorf("edgesim: clients must be positive, got %d", w.Clients)
	}
	if w.RequestRate <= 0 {
		return fmt.Errorf("edgesim: request rate must be positive, got %v", w.RequestRate)
	}
	if w.OffloadFraction < 0 || w.OffloadFraction > 1 {
		return fmt.Errorf("edgesim: offload fraction %v out of [0,1]", w.OffloadFraction)
	}
	if w.ServiceTime <= 0 {
		return fmt.Errorf("edgesim: service time must be positive, got %v", w.ServiceTime)
	}
	if w.Duration <= 0 {
		return fmt.Errorf("edgesim: duration must be positive, got %v", w.Duration)
	}
	return nil
}

// Result summarizes a simulated run.
type Result struct {
	// Served is the number of requests that completed.
	Served int
	// Utilization is the busy fraction of the server.
	Utilization float64
	// MeanWait and P95Wait are queueing delays (excluding service).
	MeanWait, P95Wait time.Duration
	// Transfer is the per-request uplink transfer time (zero when the
	// workload has no link profile).
	Transfer time.Duration
	// MeanSojourn is uplink transfer plus queueing plus service.
	MeanSojourn time.Duration
	// P50Sojourn and P99Sojourn are per-request end-to-end percentiles
	// (transfer + queueing + service).
	P50Sojourn, P99Sojourn time.Duration
	// OfferedLoad is arrival rate x service time; above 1 the queue is
	// unstable.
	OfferedLoad float64
}

// arrivalHeap orders event times.
type arrivalHeap []float64

func (h arrivalHeap) Len() int           { return len(h) }
func (h arrivalHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h arrivalHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *arrivalHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *arrivalHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Run simulates the workload and returns aggregate statistics.
func Run(w Workload) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	g := tensor.NewRNG(w.Seed)
	horizon := w.Duration.Seconds()
	lambda := w.RequestRate * w.OffloadFraction // per client, offloaded only

	// Generate each client's Poisson arrivals into one time-ordered heap.
	h := &arrivalHeap{}
	if lambda > 0 {
		for c := 0; c < w.Clients; c++ {
			t := 0.0
			for {
				t += expSample(g, lambda)
				if t > horizon {
					break
				}
				heap.Push(h, t)
			}
		}
	}

	arrivals := make([]float64, 0, h.Len())
	for h.Len() > 0 {
		arrivals = append(arrivals, heap.Pop(h).(float64))
	}

	// Single-server FIFO: each request starts when it arrives or when the
	// server frees, whichever is later, and holds the server for one
	// service time.
	service := w.ServiceTime.Seconds()
	var busyUntil, busyTotal float64
	waits := make([]float64, 0, len(arrivals))
	sojourns := make([]float64, 0, len(arrivals))
	for _, at := range arrivals {
		start := math.Max(at, busyUntil)
		busyUntil = start + service
		busyTotal += service
		waits = append(waits, start-at)
		sojourns = append(sojourns, busyUntil-at)
	}

	res := Result{
		Served:      len(waits),
		OfferedLoad: float64(w.Clients) * lambda * service,
	}
	if len(waits) == 0 {
		return res, nil
	}
	span := math.Max(horizon, busyUntil)
	res.Utilization = busyTotal / span
	sort.Float64s(waits)
	sort.Float64s(sojourns)
	mean := func(vs []float64) float64 {
		var sum float64
		for _, v := range vs {
			sum += v
		}
		return sum / float64(len(vs))
	}
	dur := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	res.MeanWait = dur(mean(waits))
	res.P95Wait = dur(waits[(len(waits)*95)/100])
	res.Transfer = w.TransferTime()
	res.MeanSojourn = res.Transfer + dur(mean(sojourns))
	res.P50Sojourn = res.Transfer + dur(sojourns[len(sojourns)/2])
	res.P99Sojourn = res.Transfer + dur(sojourns[(len(sojourns)*99)/100])
	return res, nil
}

// expSample draws an exponential inter-arrival time with rate lambda.
func expSample(g *tensor.RNG, lambda float64) float64 {
	u := g.Float64()
	for u == 0 {
		u = g.Float64()
	}
	return -math.Log(u) / lambda
}
