package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"lcrs/internal/collab"
	"lcrs/internal/models"
)

const specPath = "../BENCHMARK.json"

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func sameDefs(t *testing.T, what string, spec []specMetric, defs []metricDef) {
	t.Helper()
	if len(spec) != len(defs) {
		t.Fatalf("%s: BENCHMARK.json has %d metrics, the program prints %d", what, len(spec), len(defs))
	}
	for i, d := range defs {
		if spec[i].Name != d.name || spec[i].Unit != d.unit {
			t.Errorf("%s[%d]: BENCHMARK.json says %s (%s), the program prints %s (%s)",
				what, i, spec[i].Name, spec[i].Unit, d.name, d.unit)
		}
	}
}

// BENCHMARK.json and the program's metric catalogue name the same
// workloads and metrics with the same units, inside the contract's caps.
func TestSpecInSync(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(spec.Command, " "); got != "go run ./benchmark" {
		t.Errorf("command = %q", got)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", n, len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range spec.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	sameDefs(t, "end_to_end", spec.EndToEnd, endToEndDefs)
	sameDefs(t, "per_layer", spec.PerLayer, tracedDefs())
	hasSetup := false
	for _, m := range spec.EndToEnd {
		unique(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range spec.PerLayer {
		unique(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
}

func skipTimed(t *testing.T) {
	t.Helper()
	if raceDetectorOn {
		t.Skip("runs real forwards; too slow under -race")
	}
	if testing.Short() {
		t.Skip("runs the whole benchmark at smoke scale")
	}
}

// The whole benchmark at smoke scale: every workload and every metric
// appears with its declared unit, nothing fails, the traced pass is valid,
// and the cross-checks between metrics hold.
func TestQuickRun(t *testing.T) {
	skipTimed(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "run.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-seed", "7", "-out", out, "-trace-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	res, err := readResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the results, want %d", len(res.Workloads), len(workloads))
	}
	if res.Host.GoVersion == "" || res.Host.NProc == 0 || res.Seed != 7 {
		t.Errorf("fingerprint incomplete: %+v seed %d", res.Host, res.Seed)
	}
	if len(res.LayerTable) < 30 {
		t.Errorf("layer table has %d rows", len(res.LayerTable))
	}
	sec := map[string]workloadOut{}
	for i, w := range res.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %s, want %s", i, w.Name, workloads[i].name)
		}
		sec[w.Name] = w
		if w.Failed != 0 || w.Attempted == 0 || w.Succeeded != w.Attempted {
			t.Errorf("%s: attempted %d, succeeded %d, failed %d", w.Name, w.Attempted, w.Succeeded, w.Failed)
		}
		if !w.TracedValid {
			t.Errorf("%s: traced pass differs from the untraced run: %s", w.Name, w.TracedMismatch)
		}
		if len(w.SelfTime) == 0 {
			t.Errorf("%s: no self-time table", w.Name)
		}
		for _, d := range nineDefs() {
			m, ok := w.EndToEnd[d.name]
			if !ok || m.Unit != d.unit {
				t.Errorf("%s: end-to-end metric %s (%s) missing or in %q", w.Name, d.name, d.unit, m.Unit)
			}
			if ok && !strings.Contains(stdout.String(), d.name) {
				t.Errorf("%s is not printed", d.name)
			}
		}
		for _, d := range endToEndDefs {
			if v := w.EndToEnd[d.name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, must never be 0", w.Name, d.name, v)
			}
		}
		for _, d := range perLayerDefs {
			m, ok := w.PerLayer[d.name]
			if !ok || m.Unit != d.unit {
				t.Errorf("%s: per-layer metric %s (%s) missing or in %q", w.Name, d.name, d.unit, m.Unit)
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v", w.Name, d.name, m.Value)
			}
		}
		if _, err := readFileJSON(filepath.Join(dir, "trace_"+w.Name+".json")); err != nil {
			t.Errorf("%s: trace file: %v", w.Name, err)
		}
	}

	e2e := func(w, m string) float64 { return sec[w].EndToEnd[m].Value }
	layer := func(w, m string) float64 { return sec[w].PerLayer[m].Value }
	if v := layer("scan_exit", "exitpolicy.exit_share"); v != 1 {
		t.Errorf("scan_exit exits %v of its frames, want all", v)
	}
	if v := layer("scan_offload", "exitpolicy.exit_share"); v != 0 {
		t.Errorf("scan_offload exits %v of its frames, want none", v)
	}
	// The smoke-scale streams are short, so the screened rate is coarser
	// than the 0.5 ± 0.05 the full-scale baseline must show.
	if v := layer("scan_stream", "exitpolicy.exit_share"); v < 0.4 || v > 0.65 {
		t.Errorf("scan_stream exits %v of its frames, want about half", v)
	}
	m, err := models.Build(arch, newOptions(7, true).modelConfig())
	if err != nil {
		t.Fatal(err)
	}
	shape := append([]int{1}, m.SharedOutShape()...)
	// A raw frame with telemetry carries the codec tag a plain raw frame omits.
	wantWire := float64(collab.FrameBytesFor(shape, collab.Raw) + collab.TelemetryWireBytes + 4)
	if v := e2e("scan_offload", "wire_bytes_per_recog"); v != wantWire {
		t.Errorf("scan_offload sends %v B per recog, want %v", v, wantWire)
	}
	if v := e2e("scan_exit", "wire_bytes_per_recog"); v != 0 {
		t.Errorf("scan_exit sends %v B per recog", v)
	}
	for w, want := range map[string]float64{"scan_exit": 0, "scan_offload": 1, "edge_burst": 1} {
		if v := e2e(w, "edge_forwards_per_recog"); v != want {
			t.Errorf("%s: %v edge forwards per recog, want %v", w, v, want)
		}
	}
	if f, o := e2e("scan_stream", "edge_forwards_per_recog"), layer("scan_stream", "webclient.offload_share"); !(f < o) {
		t.Errorf("scan_stream: %v forwards per recog is not below its offload share %v: the edge answer cache did nothing", f, o)
	}
	if v := layer("scan_stream", "webclient.cache_hit_share"); v <= 0 {
		t.Errorf("scan_stream: session cache hit share %v", v)
	}
	if v := layer("scan_offload", "edge.batch_wait_us"); v != 0 {
		t.Errorf("scan_offload: batch wait %v µs with batching off", v)
	}
	if runtime.NumCPU() > 1 {
		if v := layer("edge_burst", "edge.mean_batch_size"); !(v > 1) {
			t.Errorf("edge_burst: mean batch size %v, want > 1", v)
		}
	}
	if v := layer("scan_exit", "nn.mainrest_allocs_per_forward"); v != 0 {
		t.Errorf("a serving replica's forward allocates %v objects", v)
	}
}

func readFileJSON(path string) (map[string]any, error) {
	var v map[string]any
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return v, json.Unmarshal(data, &v)
}

// The driver's mode: one workload, the result as the last line of standard
// output, with exactly the metrics BENCHMARK.json lists for that -trace.
func TestDriverLine(t *testing.T) {
	skipTimed(t)
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string][]specMetric{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "scan_stream", "--seed", "3", "--seconds", "1", "--trace", trace, "-quick"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit code %d\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted int   `json:"attempted"`
			Failed    int   `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("trace %s: last line is not the result object: %v\n%s", trace, err, lines[len(lines)-1])
		}
		if line.Correct == nil || !*line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("trace %s: correct/attempted/failed = %v/%d/%d", trace, line.Correct, line.Attempted, line.Failed)
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics printed, BENCHMARK.json lists %d", trace, len(line.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := line.Metrics[m.Name]
			if !ok || got.Value == nil || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s (%s) missing or in %q", trace, m.Name, m.Unit, got.Unit)
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "no_such"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("an unknown workload exits %d and prints %q", code, stdout.String())
	}
}

// The correctness gate: flip one expected answer and one op must count as
// failed, in the round and in fail_share.
func TestGateFires(t *testing.T) {
	skipTimed(t)
	w, err := prepare(workloadByName("scan_offload"), newOptions(5, true), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.e.close()
	if err := w.round(); err != nil {
		t.Fatal(err)
	}
	if w.recs[0].failed != 0 {
		t.Fatalf("%d ops failed before any answer was flipped", w.recs[0].failed)
	}
	w.e.rounds[0][3].want.pred ^= 1
	if err := w.round(); err != nil {
		t.Fatal(err)
	}
	if w.recs[1].failed != 1 {
		t.Fatalf("flipped one expected answer, %d ops failed", w.recs[1].failed)
	}
	w.e.rounds[0][3].want.pred ^= 1
	w.e.rounds[0][5].want.kind = kindExit // scan_offload must never exit
	if err := w.round(); err != nil {
		t.Fatal(err)
	}
	if w.recs[2].failed != 1 {
		t.Fatalf("expected an exit that cannot happen, %d ops failed", w.recs[2].failed)
	}
	w.finish()
	sec := w.section(nil, nil)
	if sec.Failed != 2 || sec.EndToEnd["fail_share"].Value != 2/float64(sec.Attempted) {
		t.Errorf("failed %d of %d, fail_share %v", sec.Failed, sec.Attempted, sec.EndToEnd["fail_share"].Value)
	}
}

// edge_burst is the one workload that answers ops from several goroutines,
// untraced and traced; this runs under -race too, with more connections than
// a small CI host would choose.
func TestBurstConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up a model and an edge server")
	}
	opt := newOptions(9, true)
	opt.conns = 4
	w, err := prepare(workloadByName("edge_burst"), opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.e.close()
	if err := w.round(); err != nil {
		t.Fatal(err)
	}
	if w.recs[0].failed != 0 {
		t.Fatalf("%d of %d ops failed", w.recs[0].failed, w.recs[0].ops)
	}
	tp, err := w.e.runTraced(w.recs[0].got)
	if err != nil {
		t.Fatal(err)
	}
	if !tp.valid {
		t.Fatalf("traced pass differs: %s", tp.mismatch)
	}
	ids := map[int]bool{}
	for _, s := range tp.spans {
		if ids[s.ID] {
			t.Fatalf("span ID %d recorded twice", s.ID)
		}
		ids[s.ID] = true
	}
}
