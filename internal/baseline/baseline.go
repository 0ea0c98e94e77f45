// Package baseline implements the comparison systems of the paper's Tables
// II/III and Figure 7: Mobile-only, Neurosurgeon (min-latency
// partitioning) and Edgent (partitioning with an early exit). All run over
// the same device/netsim cost model and the same real layer graphs as LCRS,
// so the comparison isolates the approaches rather than implementation
// details.
//
// The defining constraint of the paper's Web AR setting is that web pages
// load on demand: whatever part of the model the browser executes must be
// downloaded first, every session. Each report therefore separates the
// one-time model-loading cost from per-sample costs and combines them over
// a configurable session length (the paper's tables correspond to a cold
// session, SessionSamples=1).
package baseline

import (
	"fmt"
	"time"

	"lcrs/internal/edgesim"
	"lcrs/internal/models"
)

// resultBytes mirrors edgesim's recognition-result payload.
const resultBytes = 256

// Env is the execution environment of a comparison.
type Env struct {
	// Cost is the device + link model shared with the LCRS runtime.
	Cost edgesim.CostModel
	// SessionSamples amortizes model loading; 1 models the paper's
	// cold-start Web AR page view.
	SessionSamples int
}

// Validate returns an error for unusable environments.
func (e Env) Validate() error {
	if e.Cost.Link == nil {
		return fmt.Errorf("baseline: env needs a link")
	}
	if e.SessionSamples <= 0 {
		return fmt.Errorf("baseline: SessionSamples must be positive, got %d", e.SessionSamples)
	}
	return nil
}

// Report is one approach's cost breakdown on one network.
type Report struct {
	// Approach names the system ("neurosurgeon", ...).
	Approach string
	// PartitionAfter is the index of the last main-branch layer run on the
	// client; -1 for LCRS, whose client runs none of them.
	PartitionAfter int
	// ClientModelBytes is what the browser must download before inference.
	ClientModelBytes int64
	// ModelLoad is the one-time download time of ClientModelBytes.
	ModelLoad time.Duration
	// PerSampleCompute is client + server compute per sample.
	PerSampleCompute time.Duration
	// PerSampleComm is uplink + downlink per sample (no model load).
	PerSampleComm time.Duration
	// AvgTotal is (ModelLoad + N * per-sample)/N — the Table II number.
	AvgTotal time.Duration
	// AvgComm is (ModelLoad + N * PerSampleComm)/N — the Table III number.
	AvgComm time.Duration
}

func (r Report) finish(n int) Report {
	amort := r.ModelLoad / time.Duration(n)
	r.AvgTotal = amort + r.PerSampleCompute + r.PerSampleComm
	r.AvgComm = amort + r.PerSampleComm
	return r
}

// partitionCosts computes the cost report for cutting the main branch after
// layer index cut (client executes costs[0..cut]); cut = len(costs)-1 runs
// everything on the client.
func partitionCosts(costs []models.LayerCost, cut int, env Env) Report {
	var clientFLOPs, serverFLOPs, clientBytes int64
	for i, c := range costs {
		if i <= cut {
			clientFLOPs += c.FLOPs
			clientBytes += c.ParamBytes
		} else {
			serverFLOPs += c.FLOPs
		}
	}
	rep := Report{PartitionAfter: cut, ClientModelBytes: clientBytes}
	if clientBytes > 0 {
		rep.ModelLoad = env.Cost.Link.DownTime(clientBytes)
	}
	rep.PerSampleCompute = env.Cost.Client.ComputeTime(clientFLOPs) + env.Cost.Server.ComputeTime(serverFLOPs)

	if cut < len(costs)-1 { // anything left for the edge is shipped there
		rep.PerSampleComm = env.Cost.Link.UpTime(costs[cut].OutBytes) + env.Cost.Link.DownTime(resultBytes)
	}
	return rep
}

// MobileOnly downloads the whole model and runs it in the browser.
func MobileOnly(m *models.Composite, env Env) (Report, error) {
	if err := env.Validate(); err != nil {
		return Report{}, err
	}
	costs := models.MainLayerCosts(m)
	rep := partitionCosts(costs, len(costs)-1, env).finish(env.SessionSamples)
	rep.Approach = "mobile-only"
	return rep, nil
}

// neurosurgeonCut picks the partition the way the LCRS paper characterizes
// Neurosurgeon: "minimum communication and sufficient resource usage of the
// mobile device" — the boundary with the smallest per-sample transfer,
// breaking ties toward less client compute. Model loading is NOT part of
// the objective because Neurosurgeon assumes the device-side partition is
// deployed in advance; the Web AR environment then charges that download
// anyway, which is exactly the mismatch the paper exploits.
// Only genuine offloading partitions are considered (the final layer stays
// at the edge); device-only execution is the Mobile-only baseline. Among
// equal-byte boundaries the earliest wins — less client compute and fewer
// client parameters.
func neurosurgeonCut(costs []models.LayerCost) int {
	best, bestBytes := 0, int64(1<<62)
	for cut := 0; cut < len(costs)-1; cut++ {
		if b := costs[cut].OutBytes; b < bestBytes {
			best, bestBytes = cut, b
		}
	}
	return best
}

// Neurosurgeon applies the min-communication partition and reports its cost
// in the on-demand web environment, where the client partition must be
// downloaded before the first inference.
func Neurosurgeon(m *models.Composite, env Env) (Report, error) {
	if err := env.Validate(); err != nil {
		return Report{}, err
	}
	costs := models.MainLayerCosts(m)
	rep := partitionCosts(costs, neurosurgeonCut(costs), env).finish(env.SessionSamples)
	rep.Approach = "neurosurgeon"
	return rep, nil
}

// EdgentOptions tunes the Edgent baseline.
type EdgentOptions struct {
	// ExitRate is the fraction of samples that leave through Edgent's
	// device-side early exit instead of completing the full network.
	ExitRate float64
	// ExitHeadBytes approximates the extra exit-branch parameters the
	// client downloads (a conv + fc head, per the Edgent/BranchyNet
	// design).
	ExitHeadBytes int64
}

// DefaultEdgentOptions mirrors the evaluation setting: roughly a third of
// samples exit early through a small device-side head.
func DefaultEdgentOptions() EdgentOptions {
	return EdgentOptions{ExitRate: 0.3, ExitHeadBytes: 256 << 10}
}

// Edgent uses the same min-communication partition plus a device-side
// early exit: exiting samples skip the uplink and the server compute. It
// still pays model loading for the client partition plus the exit head.
func Edgent(m *models.Composite, env Env, opts EdgentOptions) (Report, error) {
	if err := env.Validate(); err != nil {
		return Report{}, err
	}
	if opts.ExitRate < 0 || opts.ExitRate > 1 {
		return Report{}, fmt.Errorf("baseline: edgent exit rate %v out of [0,1]", opts.ExitRate)
	}
	costs := models.MainLayerCosts(m)
	cut := neurosurgeonCut(costs)
	rep := partitionCosts(costs, cut, env)
	rep.ClientModelBytes += opts.ExitHeadBytes
	rep.ModelLoad = env.Cost.Link.DownTime(rep.ClientModelBytes)
	// Early exits skip the post-partition communication and server compute;
	// scale those by the continue rate.
	cont := 1 - opts.ExitRate
	var serverFLOPs int64
	for i := cut + 1; i < len(costs); i++ {
		serverFLOPs += costs[i].FLOPs
	}
	serverTime := env.Cost.Server.ComputeTime(serverFLOPs)
	rep.PerSampleCompute -= time.Duration(float64(serverTime) * opts.ExitRate)
	rep.PerSampleComm = time.Duration(float64(rep.PerSampleComm) * cont)
	rep = rep.finish(env.SessionSamples)
	rep.Approach = "edgent"
	return rep, nil
}

// LCRSReport casts an LCRS session into the same Report shape so the bench
// harness can tabulate all approaches uniformly.
func LCRSReport(st edgesim.SessionStats, loadBytes int64) Report {
	return Report{
		Approach:         "lcrs",
		PartitionAfter:   -1,
		ClientModelBytes: loadBytes,
		ModelLoad:        st.ModelLoad,
		PerSampleCompute: st.AvgCompute,
		PerSampleComm:    st.AvgComm - st.ModelLoad/time.Duration(st.N),
		AvgTotal:         st.AvgTotal,
		AvgComm:          st.AvgComm,
	}
}
