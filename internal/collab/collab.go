// Package collab implements the paper's collaborative inference runtime
// (Algorithm 2): the mobile web browser executes the shared first
// convolutional layer and the binary branch; when the normalized entropy of
// the binary softmax clears the threshold the sample exits locally,
// otherwise the intermediate tensor travels to the edge server, which runs
// the rest of the main branch. Latency is attributed per stage using the
// device and netsim cost models, and model-loading cost is amortized over a
// session exactly as the paper's 100-sample averages are.
package collab

import (
	"fmt"
	"time"

	"lcrs/internal/binary"
	"lcrs/internal/dataset"
	"lcrs/internal/device"
	"lcrs/internal/exitpolicy"
	"lcrs/internal/models"
	"lcrs/internal/netsim"
	"lcrs/internal/tensor"
)

// resultBytes is the size of the small JSON-ish recognition result returned
// downstream after an edge inference.
const resultBytes = 256

// CostModel bundles the execution environment of a latency experiment.
type CostModel struct {
	Client device.Profile
	Server device.Profile
	Link   *netsim.Link
}

// DefaultCostModel is the paper's evaluation environment: phone browser,
// Xeon edge box, 4G link.
func DefaultCostModel() CostModel {
	return CostModel{Client: device.MobileBrowser(), Server: device.EdgeServer(), Link: netsim.FourG()}
}

// Record is one sample's journey through Algorithm 2.
type Record struct {
	// Pred is the predicted class.
	Pred int
	// Exited reports whether the binary branch was confident (LCRS-B in
	// the paper's Figure 10); otherwise the edge supplied the result
	// (LCRS-M).
	Exited bool
	// Entropy is the binary branch's normalized entropy for the sample.
	Entropy float64
	// Stage latencies; zero when the stage did not run.
	ClientCompute time.Duration
	Uplink        time.Duration
	ServerCompute time.Duration
	Downlink      time.Duration
	// MeasuredClient and MeasuredServer are the wall-clock times of the
	// sample's forward passes on this host (binary branch and main-branch
	// rest respectively). Unlike the cost-model attributions above, which
	// are deterministic and hardware independent, these are real
	// measurements — the in-process analogue of the per-stage tracing the
	// edge server exposes at /metrics, and the column a measured
	// decomposition table reads.
	MeasuredClient time.Duration
	MeasuredServer time.Duration
}

// Total returns the end-to-end latency of the sample.
func (r Record) Total() time.Duration {
	return r.ClientCompute + r.Uplink + r.ServerCompute + r.Downlink
}

// Comm returns the communication share of the sample's latency.
func (r Record) Comm() time.Duration { return r.Uplink + r.Downlink }

// Runtime executes Algorithm 2 over a trained composite. The same instance
// serves both the in-process simulation used by the latency experiments and
// the wire protocol used by the edge server and web client.
type Runtime struct {
	Model *models.Composite
	// Tau is the exit threshold picked by screening.
	Tau float64
	// Cost attributes latency; required for Infer.
	Cost CostModel
	// CostRef, when non-nil, supplies the FLOP counts and byte sizes used
	// for latency attribution instead of Model. The experiment harness
	// pairs quickly trained width-scaled models (which decide per-sample
	// exits) with full-scale cost accounting, reproducing the paper's
	// latency tables without full-scale training.
	CostRef *models.Composite

	// branch is Model's binary branch, packed once by NewRuntime: Infer
	// runs the XNOR engine the web client runs.
	branch *binary.PackedBranch
}

// NewRuntime validates and builds a runtime over a trained m. It packs m's
// binary branch once, so Infer's exit decisions and binary answers are
// bitwise the web client's; build the runtime after training.
func NewRuntime(m *models.Composite, tau float64, cost CostModel) (*Runtime, error) {
	if m == nil {
		return nil, fmt.Errorf("collab: nil model")
	}
	if tau < 0 || tau > 1 {
		return nil, fmt.Errorf("collab: tau %v out of [0,1]", tau)
	}
	if cost.Link == nil {
		return nil, fmt.Errorf("collab: cost model needs a link")
	}
	return &Runtime{Model: m, Tau: tau, Cost: cost, branch: binary.PackBranch(m.CloneForInference().Binary)}, nil
}

// Infer runs Algorithm 2 on a single sample x (CHW tensor) and attributes
// latency with the cost model. The computation is real (the returned
// prediction comes from the actual network); the stage durations come from
// the calibrated cost model so results are deterministic and hardware
// independent.
func (rt *Runtime) Infer(x *tensor.Tensor) Record {
	m := rt.Model
	batch := x.Reshape(append([]int{1}, x.Shape...)...)

	clientStart := time.Now()
	shared := m.ForwardShared(batch, false)
	binLogits := rt.branch.Forward(shared)
	probs := tensor.Softmax(binLogits)
	entropy := exitpolicy.NormalizedEntropy(probs.Row(0))

	ref := rt.costRef()
	rec := Record{Entropy: entropy, MeasuredClient: time.Since(clientStart)}
	rec.ClientCompute = rt.Cost.Client.ComputeTime(ref.BinaryFLOPs())

	if exitpolicy.ShouldExit(entropy, rt.Tau) {
		rec.Exited = true
		rec.Pred = tensor.ArgmaxRow(binLogits.Row(0))
		return rec
	}
	// Ship the shared-prefix output to the edge and run the main rest.
	rec.Uplink = rt.Cost.Link.SampleUpTime(ref.SharedOutBytes())
	serverStart := time.Now()
	mainLogits := m.ForwardMainRest(shared, false)
	rec.MeasuredServer = time.Since(serverStart)
	rec.ServerCompute = rt.Cost.Server.ComputeTime(ref.MainRest.FLOPs(ref.SharedOutShape()))
	rec.Downlink = rt.Cost.Link.SampleDownTime(resultBytes)
	rec.Pred = tensor.ArgmaxRow(mainLogits.Row(0))
	return rec
}

// costRef returns the model whose FLOPs and sizes drive latency accounting.
func (rt *Runtime) costRef() *models.Composite {
	if rt.CostRef != nil {
		return rt.CostRef
	}
	return rt.Model
}

// ModelLoadTime returns the one-time cost of downloading the browser bundle
// (shared prefix + packed binary branch) before the first inference.
func (rt *Runtime) ModelLoadTime() time.Duration {
	return rt.Cost.Link.DownTime(rt.costRef().BinarySizeBytes())
}

// SessionStats aggregates a session of inferences, Table II/III style.
type SessionStats struct {
	// N is the number of samples.
	N int
	// ExitRate is the fraction answered by the binary branch alone.
	ExitRate float64
	// Accuracy is end-to-end accuracy against the labels.
	Accuracy float64
	// ModelLoad is the one-time bundle download cost.
	ModelLoad time.Duration
	// AvgTotal is mean per-sample latency including amortized model load —
	// the paper's Table II number.
	AvgTotal time.Duration
	// AvgComm is mean per-sample communication including amortized model
	// load — the paper's Table III number.
	AvgComm time.Duration
	// AvgCompute is mean per-sample compute (client + server).
	AvgCompute time.Duration
	// AvgMeasuredClient and AvgMeasuredServer are the means of the
	// wall-clock measurements in the records — the measured counterpart of
	// AvgCompute's cost-model attribution.
	AvgMeasuredClient time.Duration
	AvgMeasuredServer time.Duration
	// Records holds the per-sample breakdowns.
	Records []Record
}

// RunSession performs Algorithm 2 over the first n samples of ds and
// aggregates latency the way the paper's tables do: the model is loaded
// once and its cost amortized across the session.
func (rt *Runtime) RunSession(ds *dataset.Dataset, n int) (SessionStats, error) {
	if n <= 0 || n > ds.Len() {
		return SessionStats{}, fmt.Errorf("collab: session size %d out of range (dataset has %d)", n, ds.Len())
	}
	st := SessionStats{N: n, ModelLoad: rt.ModelLoadTime()}
	var totalLat, totalComm, totalCompute, totalMC, totalMS time.Duration
	exited, correct := 0, 0
	for i := 0; i < n; i++ {
		x, label := ds.Sample(i)
		rec := rt.Infer(x)
		st.Records = append(st.Records, rec)
		totalLat += rec.Total()
		totalComm += rec.Comm()
		totalCompute += rec.ClientCompute + rec.ServerCompute
		totalMC += rec.MeasuredClient
		totalMS += rec.MeasuredServer
		if rec.Exited {
			exited++
		}
		if rec.Pred == label {
			correct++
		}
	}
	amortized := st.ModelLoad / time.Duration(n)
	st.ExitRate = float64(exited) / float64(n)
	st.Accuracy = float64(correct) / float64(n)
	st.AvgTotal = totalLat/time.Duration(n) + amortized
	st.AvgComm = totalComm/time.Duration(n) + amortized
	st.AvgCompute = totalCompute / time.Duration(n)
	st.AvgMeasuredClient = totalMC / time.Duration(n)
	st.AvgMeasuredServer = totalMS / time.Duration(n)
	return st, nil
}
