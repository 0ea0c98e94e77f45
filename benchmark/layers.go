package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"lcrs/internal/binary"
	"lcrs/internal/modelio"
	"lcrs/internal/models"
	"lcrs/internal/nn"
	"lcrs/internal/tensor"
)

// The layer table: every atomic layer of the shared prefix, the packed
// binary branch and rest-of-main, called alone through its public Forward
// on the activation the layer before it produced, and timed from here —
// measured µs next to the layer's analytic FLOPs.

const (
	layerWarmup = 5
	layerCalls  = 30
)

// layerRow is one line of the layer table.
type layerRow struct {
	Group  string  `json:"group"` // shared | binary | mainrest
	Name   string  `json:"name"`
	Type   string  `json:"type"`
	FLOPs  int64   `json:"flops"`
	Us     float64 `json:"us"`
	GFlops float64 `json:"gflops"` // FLOPs ÷ time; binary layers count one op per XNOR-popcount bit pair as nn does
}

// timeCalls runs prep (untimed) then call (timed) warm+n times and returns
// the median of the last n timed calls in µs.
func timeCalls(warm, n int, prep, call func()) float64 {
	d := make([]time.Duration, 0, n)
	for i := 0; i < warm+n; i++ {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		call()
		if el := time.Since(t0); i >= warm {
			d = append(d, el)
		}
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return us(d[len(d)/2])
}

// timeLayer times fwd on a fresh copy of x per call (a layer may work in
// place) and returns the median and a copy of the output for the next layer.
func timeLayer(fwd func(*tensor.Tensor) *tensor.Tensor, x *tensor.Tensor) (float64, *tensor.Tensor) {
	var in, out *tensor.Tensor
	med := timeCalls(layerWarmup, layerCalls, func() { in = x.Clone() }, func() { out = fwd(in) })
	return med, out.Clone()
}

func typeName(v any) string {
	return strings.TrimPrefix(fmt.Sprintf("%T", v), "*")
}

// layerTable times every layer of m at batch 1 and returns the rows plus the
// activation the shared prefix produced.
func layerTable(m *models.Composite) ([]layerRow, *tensor.Tensor) {
	m = m.CloneForInference()
	var rows []layerRow
	run := func(group string, l nn.Layer, fwd func(*tensor.Tensor) *tensor.Tensor, x *tensor.Tensor) *tensor.Tensor {
		flops := l.FLOPs(x.Shape[1:])
		med, out := timeLayer(fwd, x)
		rows = append(rows, layerRow{Group: group, Name: l.Name(), Type: typeName(l), FLOPs: flops,
			Us: med, GFlops: float64(flops) / med / 1e3})
		return out
	}
	float := func(l nn.Layer) func(*tensor.Tensor) *tensor.Tensor {
		return func(x *tensor.Tensor) *tensor.Tensor { return l.Forward(x, false) }
	}
	x := tensor.NewRNG(m.Cfg.Seed).Uniform(-1, 1, append([]int{1}, m.Cfg.InShape()...)...)
	for _, l := range m.Shared.Layers {
		x = run("shared", l, float(l), x)
	}
	shared := x
	// The binary branch the way binary.PackBranch deploys it: binary layers
	// bit-packed, the float layers between them as they are.
	nn.Walk(m.Binary, func(l nn.Layer) {
		switch t := l.(type) {
		case *nn.Sequential:
		case *binary.Conv2D:
			x = run("binary", l, binary.PackConv2D(t).Forward, x)
		case *binary.Linear:
			x = run("binary", l, binary.PackLinear(t).Forward, x)
		default:
			x = run("binary", l, float(l), x)
		}
	})
	x = shared
	for _, l := range m.MainRest.Layers {
		x = run("mainrest", l, float(l), x)
	}
	return rows, shared
}

// layerMetrics derives the named per-layer metrics that come from the layer
// table and from calls of whole branches: they do not depend on a workload.
func layerMetrics(m *models.Composite, conns int) ([]layerRow, map[string]float64, error) {
	rows, shared := layerTable(m)
	v := map[string]float64{}
	usOf := func(group string, pick func(layerRow) bool) (sumUs float64, flops int64) {
		for _, r := range rows {
			if r.Group == group && pick(r) {
				sumUs += r.Us
				flops += r.FLOPs
			}
		}
		return
	}
	named := func(names ...string) func(layerRow) bool {
		return func(r layerRow) bool {
			for _, n := range names {
				if r.Name == n {
					return true
				}
			}
			return false
		}
	}
	not := func(p func(layerRow) bool) func(layerRow) bool {
		return func(r layerRow) bool { return !p(r) }
	}

	binaryLayers := []string{"bconv1", "bconv2", "bfc1", "bfc2"}
	for _, n := range binaryLayers {
		v["binary."+n+"_us"], _ = usOf("binary", named(n))
	}
	v["binary.float_stages_us"], _ = usOf("binary", not(named(binaryLayers...)))
	convUs, convOps := usOf("binary", named("bconv1", "bconv2"))
	v["binary.conv_gops"] = float64(convOps) / convUs / 1e3

	v["nn.shared.conv1_us"], _ = usOf("shared", named("conv1"))
	v["nn.shared.elementwise_us"], _ = usOf("shared", not(named("conv1")))
	gemmLayers := []string{"conv2", "conv3", "conv4", "conv5", "fc6", "fc7"}
	for _, n := range gemmLayers {
		v["nn.mainrest."+n+"_us"], _ = usOf("mainrest", named(n))
	}
	v["nn.mainrest.elementwise_us"], _ = usOf("mainrest", not(named(gemmLayers...)))
	cUs, cFlops := usOf("mainrest", named("conv2", "conv3", "conv4", "conv5"))
	v["tensor.conv_gemm_gflops"] = float64(cFlops) / cUs / 1e3
	fUs, fFlops := usOf("mainrest", named("fc6", "fc7"))
	v["tensor.fc_gemm_gflops"] = float64(fFlops) / fUs / 1e3
	v["tensor.max_workers"] = float64(tensor.MaxWorkers())

	// The packed binary conv against a float conv of bconv1's geometry.
	var bconv1 *binary.Conv2D
	nn.Walk(m.Binary, func(l nn.Layer) {
		if c, ok := l.(*binary.Conv2D); ok && bconv1 == nil {
			bconv1 = c
		}
	})
	if bconv1 == nil {
		return nil, nil, fmt.Errorf("layer table: no binary conv in %s", m.Name)
	}
	floatConv := nn.NewConv2D("float_bconv1", tensor.NewRNG(m.Cfg.Seed), bconv1.InC, bconv1.OutC,
		bconv1.KH, bconv1.KW, bconv1.Stride, bconv1.Pad)
	packedUs, _ := timeLayer(binary.PackConv2D(bconv1).Forward, shared)
	floatUs, _ := timeLayer(func(x *tensor.Tensor) *tensor.Tensor { return floatConv.Forward(x, false) }, shared)
	v["binary.vs_float_conv_ratio"] = packedUs / floatUs

	// Bytes one packed-branch forward allocates.
	branch := binary.PackBranch(m.CloneForInference().Binary)
	v["binary.branch_alloc_kb"] = allocPerRun(20, func() { branch.Forward(shared) }).bytes / 1024

	// A serving replica the way the edge builds one: arena scratch, warmed.
	// Its steady-state forward must not allocate; the budget is stated for
	// one worker, as the repo's own zero-alloc test states it.
	serving := m.CloneForServing()
	serving.WarmMainRest(conns)
	forward := func(x *tensor.Tensor) func() {
		return func() { serving.ResetScratch(); serving.ForwardMainRest(x, false) }
	}
	prev := tensor.SetMaxWorkers(1)
	v["nn.mainrest_allocs_per_forward"] = allocPerRun(20, forward(shared)).objects
	tensor.SetMaxWorkers(prev)
	batch := tensor.New(append([]int{conns}, shared.Shape[1:]...)...)
	for i := 0; i < conns; i++ {
		copy(batch.Batch(i).Data, shared.Data)
	}
	v["nn.mainrest_batch_us_per_sample"] = timeCalls(layerWarmup, layerCalls, nil, forward(batch)) / float64(conns)

	v["models.flops_per_exit"] = float64(m.BinaryFLOPs())
	v["models.flops_per_offload"] = float64(m.BinaryFLOPs() + m.MainRest.FLOPs(m.SharedOutShape()))
	v["models.shared_out_bytes"] = float64(m.SharedOutBytes())

	bundle, err := modelio.EncodeBrowserBundle(m)
	if err != nil {
		return nil, nil, fmt.Errorf("encode bundle: %w", err)
	}
	v["modelio.bundle_bytes"] = float64(len(bundle))
	v["modelio.bundle_encode_ms"] = timeCalls(1, 3, nil, func() { _, _ = modelio.EncodeBrowserBundle(m) }) / 1e3
	into, err := models.Build(m.Name, m.Cfg)
	if err != nil {
		return nil, nil, err
	}
	var decodeErr error
	v["modelio.bundle_decode_ms"] = timeCalls(1, 3, nil, func() {
		if err := modelio.DecodeBrowserBundle(bundle, into); err != nil {
			decodeErr = err
		}
	}) / 1e3
	if decodeErr != nil {
		return nil, nil, fmt.Errorf("decode bundle: %w", decodeErr)
	}
	return rows, v, nil
}

// allocCount is what one call allocates on average.
type allocCount struct{ bytes, objects float64 }

// allocPerRun is testing.AllocsPerRun without its GOMAXPROCS(1), and with
// bytes: one warm-up call, then the MemStats deltas over runs calls.
func allocPerRun(runs int, f func()) allocCount {
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return allocCount{
		bytes:   float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs),
		objects: float64(m1.Mallocs-m0.Mallocs) / float64(runs),
	}
}
