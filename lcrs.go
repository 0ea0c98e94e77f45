// Package lcrs is the public API of the LCRS reproduction: a lightweight
// collaborative recognition system with a binary convolutional neural
// network for mobile Web AR (Huang et al., ICDCS 2019).
//
// The package re-exports the pieces a downstream application needs:
//
//   - Build composite models (shared conv1 + full-precision main branch +
//     binary branch) for LeNet, AlexNet, ResNet18 and VGG16.
//   - Jointly train them (Algorithm 1) on the bundled synthetic datasets
//     or your own dataset.Dataset values.
//   - Screen an entropy exit threshold (Eq. 7) and run collaborative
//     inference (Algorithm 2) either in-process with a calibrated cost
//     model or across a real HTTP edge server and web client.
//   - Serialize checkpoints and browser bundles.
//
// See examples/quickstart for the end-to-end flow and internal/bench for
// the drivers that regenerate every table and figure of the paper.
package lcrs

import (
	"io"

	"lcrs/internal/binary"
	"lcrs/internal/dataset"
	"lcrs/internal/device"
	"lcrs/internal/edge"
	"lcrs/internal/edgesim"
	"lcrs/internal/exitpolicy"
	"lcrs/internal/modelio"
	"lcrs/internal/models"
	"lcrs/internal/netsim"
	"lcrs/internal/training"
	"lcrs/internal/webclient"
)

// Core model types.
type (
	// Model is a composite LCRS network: shared prefix, main branch,
	// binary branch.
	Model = models.Composite
	// ModelConfig selects classes, input shape, width scale and seed.
	ModelConfig = models.Config
	// BranchShape parameterizes custom binary branch structures for
	// design-space exploration (Figure 4).
	BranchShape = models.BranchShape
)

// Dataset types.
type (
	// Dataset is an in-memory labelled image set.
	Dataset = dataset.Dataset
	// DatasetSpec parameterizes the synthetic generators.
	DatasetSpec = dataset.Spec
)

// Training types.
type (
	// TrainOptions configures joint training (Algorithm 1).
	TrainOptions = training.Options
	// TrainResult is a completed run with per-epoch history.
	TrainResult = training.Result
	// Evaluation holds per-sample branch outcomes for screening.
	Evaluation = training.Evaluation
)

// Runtime types.
type (
	// Runtime executes collaborative inference (Algorithm 2).
	Runtime = edgesim.Runtime
	// CostModel bundles device profiles and the network link.
	CostModel = edgesim.CostModel
	// SessionStats aggregates a session of inferences.
	SessionStats = edgesim.SessionStats
	// InferenceRecord is one sample's latency breakdown.
	InferenceRecord = edgesim.Record
	// ExitStats summarizes an exit threshold's behaviour.
	ExitStats = exitpolicy.Stats
	// Link is a simulated network link profile.
	Link = netsim.Link
)

// Service types.
type (
	// EdgeServer hosts models behind an HTTP API.
	EdgeServer = edge.Server
	// WebClient is the browser-side library talking to an EdgeServer.
	WebClient = webclient.Client
)

// DeviceProfile is an execution target with an effective throughput.
type DeviceProfile = device.Profile

// FourGLink is a literal reading of the paper's 4G setting (10/3 Mb/s).
func FourGLink() *Link { return netsim.FourG() }

// PaperFourGLink reconstructs the paper's table arithmetic (10/3 MB/s);
// see EXPERIMENTS.md.
func PaperFourGLink() *Link { return netsim.PaperFourG() }

// WiFiLink is an optimistic indoor profile.
func WiFiLink() *Link { return netsim.WiFi() }

// ThreeGLink is a pessimistic mobile profile.
func ThreeGLink() *Link { return netsim.ThreeG() }

// MobileBrowserProfile models the paper's phone browser.
func MobileBrowserProfile() DeviceProfile { return device.MobileBrowser() }

// EdgeServerProfile models the paper's Xeon edge box.
func EdgeServerProfile() DeviceProfile { return device.EdgeServer() }

// Architectures lists the supported network names in the paper's order.
func Architectures() []string { return models.Names() }

// Build constructs a composite model by architecture name ("lenet",
// "alexnet", "resnet18", "vgg16").
func Build(arch string, cfg ModelConfig) (*Model, error) { return models.Build(arch, cfg) }

// BuildWithBranch constructs an AlexNet composite with a custom binary
// branch structure.
func BuildWithBranch(cfg ModelConfig, shape BranchShape) (*Model, error) {
	return models.AlexNetWithBranch(cfg, shape)
}

// DatasetNames lists the bundled synthetic benchmark datasets in
// increasing difficulty order.
func DatasetNames() []string {
	var names []string
	for _, s := range dataset.Specs() {
		names = append(names, s.Name)
	}
	return names
}

// GenerateDataset builds n samples of a named synthetic dataset ("mnist",
// "fashion", "cifar10", "cifar100"), deterministic in seed.
func GenerateDataset(name string, n int, seed int64) (*Dataset, error) {
	return dataset.GenerateByName(name, n, seed)
}

// GenerateLogoDataset builds the Web AR brand-logo dataset used by the
// paper's application case study.
func GenerateLogoDataset(n int, seed int64) *Dataset {
	return dataset.GenerateLogos(dataset.DefaultLogoSpec(), n, seed)
}

// DefaultTrainOptions returns stable settings for the bundled datasets.
func DefaultTrainOptions() TrainOptions { return training.DefaultOptions() }

// Train jointly trains m per Algorithm 1.
func Train(m *Model, train, eval *Dataset, opts TrainOptions) (*TrainResult, error) {
	return training.Run(m, train, eval, opts)
}

// Evaluate runs both branches over ds, collecting the per-sample outcomes
// threshold screening needs. The binary branch runs packed, on the XNOR
// engine the web client runs, so its entropies and answers are bitwise the
// web client's.
func Evaluate(m *Model, ds *Dataset, batchSize int) Evaluation {
	return training.EvaluateBranches(m, ds, batchSize)
}

// ScreenThreshold picks the largest exit threshold whose exited samples
// stay at or above minExitAccuracy, per the BranchyNet screening the paper
// adopts. Returns the threshold and its statistics.
func ScreenThreshold(ev Evaluation, minExitAccuracy float64) (float64, ExitStats) {
	return exitpolicy.Screen(ev.Entropies, ev.BinaryCorrect, ev.MainCorrect, minExitAccuracy)
}

// ScreenThresholdAccuracyPreserving picks the largest exit threshold whose
// exited samples are at least as accurate as the better branch overall —
// the paper's BranchyNet-style criterion that early exiting must not
// degrade end-to-end accuracy.
func ScreenThresholdAccuracyPreserving(ev Evaluation) (float64, ExitStats) {
	return exitpolicy.ScreenAccuracyPreserving(ev.Entropies, ev.BinaryCorrect, ev.MainCorrect)
}

// DefaultCostModel is the paper's evaluation environment: mobile web
// browser, Xeon edge server, 4G link.
func DefaultCostModel() CostModel { return edgesim.DefaultCostModel() }

// NewRuntime builds an Algorithm 2 runtime over a trained model. It packs
// the binary branch once, so its exit decisions and binary answers are
// bitwise the web client's.
func NewRuntime(m *Model, tau float64, cost CostModel) (*Runtime, error) {
	return edgesim.NewRuntime(m, tau, cost)
}

// SaveModel writes a full checkpoint of m.
func SaveModel(w io.Writer, m *Model) error { return modelio.SaveComposite(w, m) }

// LoadModel reads a checkpoint into a model of identical architecture.
func LoadModel(r io.Reader, m *Model) error { return modelio.LoadComposite(r, m) }

// EncodeBrowserBundle serializes what the browser downloads: float shared
// prefix plus the bit-packed binary branch.
func EncodeBrowserBundle(m *Model) ([]byte, error) { return modelio.EncodeBrowserBundle(m) }

// DecodeBrowserBundle restores a bundle into a same-architecture model.
func DecodeBrowserBundle(data []byte, m *Model) error { return modelio.DecodeBrowserBundle(data, m) }

// PackedBranch is the deployment form of a binary branch: the packed,
// eval-only layer sequence the web client runs.
type PackedBranch = binary.PackedBranch

// PackBinaryBranch converts a trained model's binary branch into the
// bit-packed XNOR layers the web client runs — the analogue of the paper's
// WASM library.
func PackBinaryBranch(m *Model) *PackedBranch { return binary.PackBranch(m.Binary) }

// NewEdgeServer creates an empty edge server with default configuration;
// register trained models and serve its Handler. Use edge.New directly to
// configure replicas, batching, codecs or a shared metrics registry.
func NewEdgeServer() *EdgeServer {
	s, _ := edge.New() // no options: cannot fail
	return s
}

// NewWebClient creates a browser-side client for the edge server at
// baseURL with default configuration. Use webclient.New directly to set a
// custom HTTP client, timeout or offload codec.
func NewWebClient(baseURL string) *WebClient {
	c, _ := webclient.New(baseURL) // no options: cannot fail
	return c
}
