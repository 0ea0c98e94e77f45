package tensor

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// Every index in [0, n) must be visited exactly once, for chunk counts
// below, equal to and above n.
func TestParallelForCoversRangeOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		prev := SetMaxWorkers(workers)
		for _, n := range []int{0, 1, 2, 5, 63, 64, 65, 1000} {
			counts := make([]int32, n)
			ParallelFor(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
		SetMaxWorkers(prev)
	}
}

// Nested ParallelFor calls must complete even when every pool worker is
// already busy — the inline fallback guarantees progress.
func TestParallelForNestedNoDeadlock(t *testing.T) {
	prev := SetMaxWorkers(8)
	defer SetMaxWorkers(prev)
	var total atomic.Int64
	ParallelFor(16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ParallelFor(16, func(lo2, hi2 int) {
				total.Add(int64(hi2 - lo2))
			})
		}
	})
	if got := total.Load(); got != 16*16 {
		t.Fatalf("nested ParallelFor covered %d elements, want %d", got, 16*16)
	}
}

// Chunked execution must write the same bytes as serial execution when
// chunks own disjoint ranges.
func TestParallelForDisjointWritesDeterministic(t *testing.T) {
	const n = 257
	fill := func(workers int) []float64 {
		prev := SetMaxWorkers(workers)
		defer SetMaxWorkers(prev)
		out := make([]float64, n)
		ParallelFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				// Accumulate in a fixed per-element order so the result is
				// chunking-independent, like the conv kernels do.
				var s float64
				for j := 0; j < 37; j++ {
					s += float64(i*j) * 1e-3
				}
				out[i] = s
			}
		})
		return out
	}
	serial := fill(1)
	for _, workers := range []int{2, 5, 32} {
		got := fill(workers)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: element %d differs: %v vs %v", workers, i, got[i], serial[i])
			}
		}
	}
}

// A split allocates nothing: chunks reach the pool as values and the
// completion counter is recycled, whether a chunk runs on a worker or
// inline on a saturated pool.
func TestParallelForZeroAllocs(t *testing.T) {
	if raceDetectorOn {
		t.Skip("race runtime allocates; budget only meaningful without -race")
	}
	out := make([]float32, 96)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i]++
		}
	}
	for _, workers := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			prev := SetMaxWorkers(workers)
			defer SetMaxWorkers(prev)
			if avg := testing.AllocsPerRun(100, func() { ParallelFor(len(out), body) }); avg != 0 {
				t.Fatalf("ParallelFor allocates %.1f objects/call, want 0", avg)
			}
		})
	}
}
