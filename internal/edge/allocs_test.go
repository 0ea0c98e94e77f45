package edge

import (
	"fmt"
	"runtime"
	"testing"

	"lcrs/internal/tensor"
)

// A warmed serving replica's forward path must be allocation-free at every
// worker count: outputs and pack panels come from the replica's arena,
// ParallelFor hands its chunks to the pool by value and recycles its
// completion counter, and the fused conv path materializes no cols matrix.
// CI runs these tests, so a regression that reintroduces per-request
// garbage fails the build rather than showing up as GC pauses under load.
func TestServerReplicaForwardZeroAllocs(t *testing.T) {
	replicaForwardZeroAllocs(t, 1)
}

// The batched shape (N>1) must also be allocation-free once warmed for
// that batch size — the coalescing path in batcher.run reuses the same
// replica pool.
func TestServerReplicaBatchForwardZeroAllocs(t *testing.T) {
	replicaForwardZeroAllocs(t, 4)
}

// replicaForwardZeroAllocs checks a warmed replica's steady-state forward
// on a batch of n at one, two and three workers. The worker count is set
// before the warm-up, as the edge warms its replicas under the count it
// serves with. AllocsPerRun pins GOMAXPROCS to 1, but the chunk count is
// the SetMaxWorkers override, so the split path (pool hand-off or inline
// run) is what gets measured.
func replicaForwardZeroAllocs(t *testing.T, n int) {
	if raceDetectorOn {
		t.Skip("race runtime allocates; budget only meaningful without -race")
	}
	m := testModel(t)
	x := tensor.NewRNG(11).Uniform(-1, 1, n, 1, 28, 28)
	shared := m.ForwardShared(x, false)
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			prev := tensor.SetMaxWorkers(workers)
			defer tensor.SetMaxWorkers(prev)
			rep := m.CloneForServing()
			rep.WarmMainRest(n)
			avg := testing.AllocsPerRun(50, func() {
				rep.ResetScratch()
				rep.ForwardMainRest(shared, false)
			})
			if avg != 0 {
				t.Fatalf("steady-state ForwardMainRest at batch %d allocates %.1f objects/op, want 0", n, avg)
			}
		})
	}
}

// WarmMainRest leaves a replica warm: its very first forward after the
// warm-up allocates nothing, with no extra reset or throwaway forward by
// the caller. One forward is one sample of the process-wide malloc count,
// which a goroutine another test left behind can move, so each case gets
// three fresh replicas and fails only if none of them reads 0.
func TestWarmMainRestFirstForwardZeroAllocs(t *testing.T) {
	if raceDetectorOn {
		t.Skip("race runtime allocates; budget only meaningful without -race")
	}
	m := testModel(t)
	for _, n := range []int{1, 4} {
		shared := m.ForwardShared(tensor.NewRNG(13).Uniform(-1, 1, n, 1, 28, 28), false)
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("batch=%d/workers=%d", n, workers), func(t *testing.T) {
				prev := tensor.SetMaxWorkers(workers)
				defer tensor.SetMaxWorkers(prev)
				var least uint64
				for try := 0; try < 3; try++ {
					rep := m.CloneForServing()
					rep.WarmMainRest(n)
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					rep.ResetScratch()
					rep.ForwardMainRest(shared, false)
					runtime.ReadMemStats(&after)
					if d := after.Mallocs - before.Mallocs; try == 0 || d < least {
						least = d
					}
				}
				if least != 0 {
					t.Fatalf("first forward after WarmMainRest(%d) did %d mallocs, want 0", n, least)
				}
			})
		}
	}
}
