package edgesim

import (
	"time"

	"lcrs/internal/models"
)

// This file implements the closed-form latency expectations of the paper's
// §IV-D discussion: how many binary branches to add (D1) and where to
// attach one (D2). The expectations use the same cost model as Infer but
// need no trained weights, so design sweeps are instant.

// BranchPoint describes one candidate binary branch for the expectation
// analysis.
type BranchPoint struct {
	// ExitRate is the probability a sample exits at this branch.
	ExitRate float64
	// ClientFLOPs is the browser compute to reach and evaluate the branch.
	ClientFLOPs int64
	// IntermediateBytes is the tensor shipped upstream when the branch is
	// not confident.
	IntermediateBytes int64
	// ServerFLOPs is the edge compute for the main-branch rest from this
	// branch's attachment point.
	ServerFLOPs int64
	// ClientModelBytes is what the browser downloads to run this branch
	// (shared float prefix + packed branch).
	ClientModelBytes int64
}

// ExpectedLatency returns the per-sample expectation for a single-branch
// design: E = t_client + (1-p) * (t_up + t_server + t_down).
func ExpectedLatency(bp BranchPoint, cm CostModel) time.Duration {
	client := cm.Client.ComputeTime(bp.ClientFLOPs)
	miss := cm.Link.UpTime(bp.IntermediateBytes) +
		cm.Server.ComputeTime(bp.ServerFLOPs) +
		cm.Link.DownTime(resultBytes)
	return client + time.Duration(float64(miss)*(1-bp.ExitRate))
}

// ExpectedLatencyTwoBranch returns the per-sample expectation when a second
// binary branch is added after the first (the paper's e1/e2 analysis,
// §IV-D1). Samples that miss the first branch compute up to the second;
// samples that miss both pay a (single) transfer from the second branch's
// attachment point. The second branch's extra client compute and the larger
// intermediate tensor are exactly the costs the paper argues make a second
// branch unprofitable.
func ExpectedLatencyTwoBranch(first, second BranchPoint, cm CostModel) time.Duration {
	t1 := cm.Client.ComputeTime(first.ClientFLOPs)
	t2 := cm.Client.ComputeTime(second.ClientFLOPs) // cumulative from input
	missBoth := cm.Link.UpTime(second.IntermediateBytes) +
		cm.Server.ComputeTime(second.ServerFLOPs) +
		cm.Link.DownTime(resultBytes)
	p1 := first.ExitRate
	p2 := second.ExitRate
	// E = t1 + (1-p1)[ (t2-t1) + (1-p2)(up+server+down) ]
	cont := float64(t2-t1) + float64((1-p2)*float64(missBoth))
	return t1 + time.Duration((1-p1)*cont)
}

// BranchPointForComposite derives a BranchPoint from a composite model and
// an observed (or assumed) exit rate.
func BranchPointForComposite(m *models.Composite, exitRate float64) BranchPoint {
	return BranchPoint{
		ExitRate:          exitRate,
		ClientFLOPs:       m.BinaryFLOPs(),
		IntermediateBytes: m.SharedOutBytes(),
		ServerFLOPs:       m.MainRest.FLOPs(m.SharedOutShape()),
		ClientModelBytes:  m.BinarySizeBytes(),
	}
}
