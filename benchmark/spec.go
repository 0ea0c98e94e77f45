package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// The metric catalogue: every metric this program prints, with its unit.
// BENCHMARK.json at the repo root names the same metrics (bench_test.go
// keeps the two in step) and adds what the code has no use for: each
// end-to-end metric's direction and regression bound.

type metricDef struct{ name, unit string }

// endToEndDefs are the end-to-end metrics that are never 0, which is what
// BENCHMARK.json's end_to_end list requires of a metric it bounds by a
// share of its parent's value.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"load_ms", "ms"},
	{"recog_p50_ms", "ms"},
	{"recog_per_s", "1/s"},
	{"cpu_ms_per_recog", "ms"},
	{"alloc_kb_per_recog", "KiB"},
}

// exactDefs are the three end-to-end metrics that are exact counts and are
// 0 by construction on some workload (no bytes leave the device on
// scan_exit; nothing fails). BENCHMARK.json can only carry them unbounded,
// in per_layer; -compare gates them with the bounds below.
var exactDefs = []metricDef{
	{"wire_bytes_per_recog", "B"},
	{"edge_forwards_per_recog", "ratio"},
	{"fail_share", "ratio"},
}

// nineDefs are the nine end-to-end metrics the results file and the printed
// report carry for every workload.
func nineDefs() []metricDef {
	return append(append([]metricDef(nil), endToEndDefs...), exactDefs...)
}

// tracedDefs are the metrics a -trace 1 run prints: BENCHMARK.json's
// per_layer list.
func tracedDefs() []metricDef {
	return append(append([]metricDef(nil), perLayerDefs...), exactDefs...)
}

// exactBounds: relative for the two counts, absolute (any rise) for
// fail_share.
var exactBounds = map[string]float64{
	"wire_bytes_per_recog":    0.01,
	"edge_forwards_per_recog": 0.01,
	"fail_share":              0,
}

// perLayerDefs are the per-layer metrics, layer by layer. Sources: a span
// of the traced pass (T), the layer table (L), an exact count of the
// untraced run or edge.Server.Stats (C), a value the edge echoes in
// InferResponse.Stages (E).
var perLayerDefs = []metricDef{
	{"binary.branch_us", "us"},              // T
	{"binary.bconv1_us", "us"},              // L
	{"binary.bconv2_us", "us"},              // L
	{"binary.bfc1_us", "us"},                // L
	{"binary.bfc2_us", "us"},                // L
	{"binary.float_stages_us", "us"},        // L
	{"binary.conv_gops", "Gop/s"},           // L
	{"binary.vs_float_conv_ratio", "ratio"}, // L
	{"binary.branch_alloc_kb", "KiB"},

	{"nn.shared_us", "us"},                    // T
	{"nn.shared.conv1_us", "us"},              // L
	{"nn.shared.elementwise_us", "us"},        // L
	{"nn.mainrest_us", "us"},                  // T, shadow
	{"nn.mainrest.conv2_us", "us"},            // L
	{"nn.mainrest.conv3_us", "us"},            // L
	{"nn.mainrest.conv4_us", "us"},            // L
	{"nn.mainrest.conv5_us", "us"},            // L
	{"nn.mainrest.fc6_us", "us"},              // L
	{"nn.mainrest.fc7_us", "us"},              // L
	{"nn.mainrest.elementwise_us", "us"},      // L
	{"nn.mainrest_batch_us_per_sample", "us"}, // L
	{"nn.mainrest_allocs_per_forward", "count"},

	{"tensor.conv_gemm_gflops", "GFLOP/s"}, // L
	{"tensor.fc_gemm_gflops", "GFLOP/s"},   // L
	{"tensor.max_workers", "count"},

	{"exitpolicy.decide_us", "us"},     // T
	{"exitpolicy.exit_share", "ratio"}, // C
	{"exitpolicy.tau", "ratio"},

	{"collab.encode_us", "us"},         // T
	{"collab.key_us", "us"},            // T
	{"collab.decode_us", "us"},         // T, shadow
	{"collab.frame_bytes", "B"},        // C
	{"collab.encode_mb_per_s", "MB/s"}, // T

	{"webclient.recognize_p90_ms", "ms"},
	{"webclient.recognize_p99_ms", "ms"},
	{"webclient.self_us", "us"},            // T
	{"webclient.offload_share", "ratio"},   // C
	{"webclient.cache_hit_share", "ratio"}, // C
	{"webclient.cache_hit_us", "us"},

	{"edge.roundtrip_us", "us"},       // T
	{"edge.read_us", "us"},            // E
	{"edge.decode_us", "us"},          // E
	{"edge.queue_us", "us"},           // E
	{"edge.batch_wait_us", "us"},      // E
	{"edge.forward_us", "us"},         // E
	{"edge.http_overhead_us", "us"},   // T − E
	{"edge.mean_batch_size", "count"}, // C
	{"edge.cache_hit_share", "ratio"}, // C
	{"edge.requests", "count"},        // C
	{"edge.errors", "count"},          // C

	{"modelio.bundle_bytes", "B"},
	{"modelio.bundle_decode_ms", "ms"},
	{"modelio.bundle_encode_ms", "ms"},

	{"models.flops_per_exit", "FLOP"},
	{"models.flops_per_offload", "FLOP"},
	{"models.shared_out_bytes", "B"},

	{"host.calib_ms", "ms"},
	{"host.nproc", "count"},
	{"process.gc_cycles_per_1k_recog", "count"},
	{"process.heap_inuse_peak_mb", "MiB"},
	{"trace.overhead_share", "ratio"},
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
