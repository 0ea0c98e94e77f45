package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Shared worker pool for the float kernels. The GEMMs and float convolution
// forward passes split their output across ParallelFor; because every chunk
// writes a disjoint region and each output element is accumulated in the
// same sequential order regardless of chunking, parallel results are
// bitwise identical to a single-threaded run (see the determinism tests in
// this package and internal/nn). The packed XNOR layers of internal/binary
// run on the calling goroutine.

// chunk is one [lo, hi) slice of a ParallelFor call, handed to a pool
// worker by value so that offering it allocates nothing.
type chunk struct {
	body   func(lo, hi int)
	lo, hi int
	done   *sync.WaitGroup
}

var (
	poolOnce    sync.Once
	poolTasks   chan chunk
	poolWorkers int

	// waitGroups recycles ParallelFor's completion counters: a WaitGroup
	// may be reused once Wait has returned, so a split allocates nothing
	// once the pool holds one counter per concurrent caller.
	waitGroups = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

	// maxWorkersOverride caps the number of chunks ParallelFor creates.
	// Zero (the default) means GOMAXPROCS. Tests set 1 to force serial
	// execution and >GOMAXPROCS to force chunked execution on small hosts.
	maxWorkersOverride atomic.Int32
)

// pool lazily starts the worker goroutines. Workers are few (GOMAXPROCS)
// and idle ones cost nothing, so the pool is never torn down. The task
// channel is deliberately unbuffered: a send succeeds only when a worker is
// parked and ready to run the chunk immediately. A buffer would accept
// chunks while every worker is busy — and if the busy worker is itself
// blocked in a ParallelFor wait, those buffered chunks never run and the
// wait never returns.
func pool() chan chunk {
	poolOnce.Do(func() {
		poolWorkers = runtime.GOMAXPROCS(0)
		poolTasks = make(chan chunk)
		for i := 0; i < poolWorkers; i++ {
			go func() {
				for c := range poolTasks {
					c.body(c.lo, c.hi)
					c.done.Done()
				}
			}()
		}
	})
	return poolTasks
}

// MaxWorkers returns the number of chunks ParallelFor aims for: the
// SetMaxWorkers override when one is active, GOMAXPROCS otherwise.
func MaxWorkers() int {
	if n := maxWorkersOverride.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetMaxWorkers overrides the ParallelFor chunk target and returns the
// previous override (0 if none was set). n <= 0 removes the override.
// Intended for tests and benchmarks; safe to call concurrently.
func SetMaxWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(maxWorkersOverride.Swap(int32(n)))
}

// ParallelFor splits [0, n) into at most MaxWorkers() contiguous chunks and
// runs body(lo, hi) for each, returning when all chunks are done. The first
// chunk runs on the calling goroutine; the rest are offered to the shared
// pool and run inline when the pool is saturated, so nested ParallelFor
// calls cannot deadlock. body must only write state owned by its [lo, hi)
// range.
func ParallelFor(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := MaxWorkers()
	if w <= 1 || n == 1 {
		body(0, n)
		return
	}
	chunks := w
	if chunks > n {
		chunks = n
	}
	size := (n + chunks - 1) / chunks
	tasks := pool()
	wg := waitGroups.Get().(*sync.WaitGroup)
	for lo := size; lo < n; lo += size {
		hi := min(lo+size, n)
		wg.Add(1)
		select {
		case tasks <- chunk{body, lo, hi, wg}:
		default:
			// Pool saturated: run inline, guaranteeing progress.
			body(lo, hi)
			wg.Done()
		}
	}
	body(0, size)
	wg.Wait()
	waitGroups.Put(wg)
}
