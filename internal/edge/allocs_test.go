package edge

import (
	"testing"

	"lcrs/internal/tensor"
)

// A warmed serving replica's forward path must be allocation-free: outputs
// and pack panels come from the replica's arena, ParallelFor runs its body
// inline on one worker, and the fused conv path materializes no cols
// matrix. This is the ISSUE's zero-alloc acceptance criterion; CI runs this
// test, so a regression that reintroduces per-request garbage fails the
// build rather than showing up as GC pauses under load.
func TestServerReplicaForwardZeroAllocs(t *testing.T) {
	if raceDetectorOn {
		t.Skip("race runtime allocates; budget only meaningful without -race")
	}
	// AllocsPerRun pins GOMAXPROCS to 1, which makes ParallelFor run
	// serially — but force one worker explicitly so the measurement does
	// not depend on that implementation detail.
	prev := tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(prev)

	m := testModel(t)
	rep := m.CloneForServing()

	g := tensor.NewRNG(11)
	x := g.Uniform(-1, 1, 1, 1, 28, 28)
	shared := m.ForwardShared(x, false)

	// Two warm-up rounds: the first grows the arena slabs through the
	// overflow path, the second confirms the high-water regrowth settled.
	for i := 0; i < 2; i++ {
		rep.ResetScratch()
		rep.ForwardMainRest(shared, false)
	}

	avg := testing.AllocsPerRun(50, func() {
		rep.ResetScratch()
		rep.ForwardMainRest(shared, false)
	})
	if avg != 0 {
		t.Fatalf("steady-state ForwardMainRest allocates %.1f objects/op, want 0", avg)
	}
}

// The batched shape (N>1) must also be allocation-free once warmed for
// that batch size — the coalescing path in batcher.run reuses the same
// replica pool.
func TestServerReplicaBatchForwardZeroAllocs(t *testing.T) {
	if raceDetectorOn {
		t.Skip("race runtime allocates; budget only meaningful without -race")
	}
	prev := tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(prev)

	m := testModel(t)
	rep := m.CloneForServing()

	const batch = 4
	g := tensor.NewRNG(13)
	x := g.Uniform(-1, 1, batch, 1, 28, 28)
	shared := m.ForwardShared(x, false)

	for i := 0; i < 2; i++ {
		rep.ResetScratch()
		rep.ForwardMainRest(shared, false)
	}

	avg := testing.AllocsPerRun(50, func() {
		rep.ResetScratch()
		rep.ForwardMainRest(shared, false)
	})
	if avg != 0 {
		t.Fatalf("steady-state batched ForwardMainRest allocates %.1f objects/op, want 0", avg)
	}
}
