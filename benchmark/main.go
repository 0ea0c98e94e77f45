// Command benchmark is the repository's one benchmark: four closed-loop
// frame-to-answer workloads driven through the real webclient → loopback
// HTTP → edge.Server path on a seeded full-width AlexNet, every answer
// checked against an in-process reference, end-to-end metrics measured with
// tracing off and per-layer metrics from a separate traced pass and a layer
// table, all taken from outside the layers. See README.md.
//
//	go run ./benchmark                         all workloads, interleaved rounds, results file
//	go run ./benchmark -workload scan_exit -seed 3 -seconds 16 -trace 0
//	go run ./benchmark -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

const (
	// fullRounds is how many rounds each workload runs when no -seconds is
	// given; minRounds is the floor when -seconds decides.
	fullRounds  = 20
	quickRounds = 2
	minRounds   = 6
	// setupReps is how often a workload is set up; setup_s is the median.
	setupReps = 3
	issue     = 11
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	quick    bool
	out      string
	traceOut string
	spec     string
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Issue      int           `json:"issue"`
	Seed       int64         `json:"seed"`
	Quick      bool          `json:"quick,omitempty"`
	Host       hostInfo      `json:"host"`
	Workloads  []workloadOut `json:"workloads"`
	LayerTable []layerRow    `json:"layer_table,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var c config
	var compare bool
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "run one workload (scan_exit, scan_offload, scan_stream, edge_burst) and print its result as one JSON line; default: all four, interleaved")
	fs.Int64Var(&c.seed, "seed", 1, "seed of the weights, frames and streams")
	fs.IntVar(&c.seconds, "seconds", 0, "measure each workload for about this long; 0: a fixed number of rounds")
	fs.IntVar(&c.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics (tracing off), 1 runs the traced pass and prints the per-layer metrics")
	fs.BoolVar(&c.quick, "quick", false, "smoke-test scale: narrow model, 2 rounds, ops ÷ 20")
	fs.StringVar(&c.out, "out", "", "results file (default benchmark/results/run.json when all workloads run)")
	fs.StringVar(&c.traceOut, "trace-out", "", "directory for the Chrome trace-event files (default benchmark/results when all workloads run)")
	fs.StringVar(&c.spec, "spec", "BENCHMARK.json", "the benchmark's contract, read by -compare")
	fs.BoolVar(&compare, "compare", false, "compare two results files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	code := 0
	switch {
	case compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare old.json new.json")
			return 2
		}
		code, err = compareFiles(stdout, c.spec, fs.Arg(0), fs.Arg(1))
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "unexpected argument %q\n", fs.Arg(0))
		return 2
	case c.workload != "":
		code, err = runOne(c, stdout)
	default:
		code, err = runAll(c, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return code
}

// measure measures w: for about -seconds when given, else a fixed
// number of rounds.
func measure(w *wlRun, c config, share float64) error {
	if c.seconds > 0 {
		d := time.Duration(float64(c.seconds) * share * float64(time.Second))
		return w.runFor(d, minRounds)
	}
	for i := 0; i < c.rounds(); i++ {
		if err := w.round(); err != nil {
			return err
		}
	}
	return nil
}

// rounds is how many rounds each workload runs when -seconds does not decide.
func (c config) rounds() int {
	if c.quick {
		return quickRounds
	}
	return fullRounds
}

// tracedSection runs w's traced pass, writes its trace file when dir is
// given, and assembles the workload's section with the per-layer metrics.
func tracedSection(w *wlRun, layer map[string]float64, dir string) (workloadOut, error) {
	tp, err := w.e.runTraced(w.recs[0].got)
	if err != nil {
		return workloadOut{}, err
	}
	name := w.e.def.name
	if dir != "" {
		if err := writeChromeTrace(filepath.Join(dir, "trace_"+name+".json"), name, tp.spans); err != nil {
			return workloadOut{}, err
		}
	}
	return w.section(tp, layer), nil
}

// runOne is the mode the benchmark driver uses: one workload, one process,
// the result as the last line of standard output.
func runOne(c config, stdout io.Writer) (int, error) {
	def := workloadByName(c.workload)
	if def == nil {
		return 2, fmt.Errorf("unknown workload %q", c.workload)
	}
	opt := newOptions(c.seed, c.quick)
	reps, share := setupReps, 1.0
	if c.trace == 1 {
		// setup_s is not reported with tracing on, and the traced pass and
		// the layer table need their part of the run.
		reps, share = 1, 0.4
	}
	w, err := prepare(def, opt, reps)
	if err != nil {
		return 1, err
	}
	defer w.e.close()
	if err := measure(w, c, share); err != nil {
		return 1, err
	}
	w.finish()

	res := resultsFile{Issue: issue, Seed: c.seed, Quick: c.quick}
	defs := endToEndDefs
	var sec workloadOut
	if c.trace == 1 {
		rows, layer, err := layerMetrics(w.e.model, opt.conns)
		if err != nil {
			return 1, err
		}
		if sec, err = tracedSection(w, layer, c.traceOut); err != nil {
			return 1, err
		}
		res.LayerTable, defs = rows, tracedDefs()
	} else {
		sec = w.section(nil, nil)
	}
	res.Workloads = []workloadOut{sec}
	printSection(stdout, sec)
	printLayerTable(stdout, res.LayerTable)
	if c.out != "" {
		res.Host = fingerprint()
		if err := writeResults(c.out, res); err != nil {
			return 1, err
		}
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: sec.Failed == 0 && (c.trace != 1 || sec.TracedValid), Attempted: sec.Attempted, Failed: sec.Failed,
		Metrics: map[string]value{}}
	for _, d := range defs {
		m, ok := sec.PerLayer[d.name]
		if !ok {
			m = sec.EndToEnd[d.name]
		}
		line.Metrics[d.name] = value{m.Value, d.unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(data))
	if !line.Correct {
		return 1, nil
	}
	return 0, nil
}

// runAll runs the four workloads with their rounds interleaved round-robin
// (w1r1, w2r1, w3r1, w4r1, w1r2 …), so a slow spell of a shared host falls
// on all of them alike; then the traced passes; then the layer table.
func runAll(c config, stdout io.Writer) (int, error) {
	opt := newOptions(c.seed, c.quick)
	if c.out == "" {
		c.out = filepath.Join("benchmark", "results", "run.json")
	}
	if c.traceOut == "" {
		c.traceOut = filepath.Join("benchmark", "results")
	}
	var runs []*wlRun
	defer func() {
		for _, w := range runs {
			w.e.close()
		}
	}()
	for _, def := range workloads {
		fmt.Fprintf(stdout, "set-up %s …\n", def.name)
		w, err := prepare(def, opt, setupReps)
		if err != nil {
			return 1, err
		}
		runs = append(runs, w)
	}
	rounds := c.rounds()
	if c.seconds > 0 {
		// Rounds are sized to about 0.7 seconds on the reference box.
		if rounds = c.seconds * 3 / 2; rounds < minRounds {
			rounds = minRounds
		}
	}
	for r := 0; r < rounds; r++ {
		for _, w := range runs {
			if err := w.round(); err != nil {
				return 1, err
			}
		}
		fmt.Fprintf(stdout, "round %d/%d done\n", r+1, rounds)
	}
	res := resultsFile{Issue: issue, Seed: c.seed, Quick: c.quick, Host: fingerprint()}
	rows, layer, err := layerMetrics(runs[0].e.model, opt.conns)
	if err != nil {
		return 1, err
	}
	res.LayerTable = rows
	code := 0
	for _, w := range runs {
		w.finish()
		sec, err := tracedSection(w, layer, c.traceOut)
		if err != nil {
			return 1, err
		}
		if sec.Failed > 0 || !sec.TracedValid {
			code = 1
		}
		printSection(stdout, sec)
		res.Workloads = append(res.Workloads, sec)
	}
	printLayerTable(stdout, rows)
	if err := writeResults(c.out, res); err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "results: %s, traces: %s/trace_<workload>.json\n", c.out, c.traceOut)
	return code, nil
}

func writeResults(path string, res resultsFile) error {
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res resultsFile
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// printSection prints every metric of one workload by name, with its unit.
func printSection(w io.Writer, sec workloadOut) {
	fmt.Fprintf(w, "\n== %s: %d rounds, attempted %d, succeeded %d, failed %d\n",
		sec.Name, sec.Rounds, sec.Attempted, sec.Succeeded, sec.Failed)
	for _, d := range nineDefs() {
		m := sec.EndToEnd[d.name]
		fmt.Fprintf(w, "  %-34s %14.4f %-8s", d.name, m.Value, d.unit)
		if len(m.Rounds) > 0 {
			fmt.Fprintf(w, " %d rounds: median %.4f, IQR %.4f", len(m.Rounds), m.Median, m.IQR)
		}
		fmt.Fprintln(w)
	}
	if sec.PerLayer == nil {
		return
	}
	fmt.Fprintf(w, "  -- per layer (traced pass valid: %v %s; p90/p99 from %d samples)\n",
		sec.TracedValid, sec.TracedMismatch, sec.TailSamples)
	for _, d := range perLayerDefs {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, sec.PerLayer[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "  -- self time of the traced pass\n  %-20s %-7s %7s %12s %12s %10s\n",
		"span", "flag", "count", "total_us", "self_us", "p50_us")
	for _, r := range sec.SelfTime {
		fmt.Fprintf(w, "  %-20s %-7s %7d %12.0f %12.0f %10.1f\n", r.Name, r.Flag, r.Count, r.TotalUs, r.SelfUs, r.P50Us)
	}
}

func printLayerTable(w io.Writer, rows []layerRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "\n== layer table (batch 1, median of %d calls after %d warm-up)\n  %-9s %-8s %-18s %14s %10s %9s\n",
		layerCalls, layerWarmup, "group", "layer", "type", "flops", "us", "GFLOP/s")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-9s %-8s %-18s %14d %10.1f %9.2f\n", r.Group, r.Name, r.Type, r.FLOPs, r.Us, r.GFlops)
	}
}
