package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	cases := []struct {
		name                     string
		base, cur, bound, spread float64
		lowerIsBetter            bool
		want                     string
	}{
		{"inside the bound, quiet", 10, 10.5, 0.10, 0.02, true, verdictSame},
		{"inside the bound, noisy", 10, 10.5, 0.10, 0.15, true, verdictUnresolved},
		{"slower than the bound", 10, 11.5, 0.10, 0.02, true, verdictWorse},
		{"slower, and noisy: still worse", 10, 11.5, 0.10, 0.30, true, verdictWorse},
		{"faster than the bound", 10, 8, 0.10, 0.02, true, verdictBetter},
		{"throughput down", 100, 85, 0.10, 0.02, false, verdictWorse},
		{"throughput up", 100, 120, 0.10, 0.02, false, verdictBetter},
		{"exact count unchanged at 0", 0, 0, 0.01, 0, true, verdictSame},
		{"fail_share rises from 0", 0, 0.001, 0, 0, true, verdictWorse},
		{"fail_share stays", 0.01, 0.01, 0, 0, true, verdictSame},
	}
	for _, c := range cases {
		if got := judge(c.base, c.cur, c.bound, c.spread, c.lowerIsBetter); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// iqr must be the quartile distance Python's statistics.quantiles(v, n=4)
// gives, since that is what the acceptance check computes.
func TestIQRMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	if got := iqr([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22}); got != 27.5 {
		t.Errorf("iqr = %v, want 27.5", got)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if got := iqr([]float64{3, 1, 2}); got != 2 {
		t.Errorf("iqr = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func resultsWith(p50, failShare float64, cpu string) resultsFile {
	e2e := map[string]metricOut{}
	for _, d := range nineDefs() {
		e2e[d.name] = metricOut{Value: 1, Unit: d.unit}
	}
	e2e["recog_p50_ms"] = metricOut{Value: p50, Unit: "ms", Median: p50, IQR: 0.01 * p50}
	e2e["fail_share"] = metricOut{Value: failShare, Unit: "ratio"}
	return resultsFile{Issue: issue, Host: hostInfo{CPUModel: cpu, NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"},
		Workloads: []workloadOut{{Name: "scan_exit", EndToEnd: e2e}}}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, res resultsFile) string {
		path := filepath.Join(dir, name)
		if err := writeResults(path, res); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", resultsWith(4.0, 0, "cpu A"))
	cases := []struct {
		name     string
		cur      resultsFile
		code     int
		contains []string
	}{
		{"same", resultsWith(4.1, 0, "cpu A"), 0, []string{"recog_p50_ms", "same"}},
		{"slower", resultsWith(6.0, 0, "cpu A"), 1, []string{"worse"}},
		{"faster", resultsWith(2.0, 0, "cpu A"), 0, []string{"better"}},
		{"an op fails", resultsWith(4.0, 0.01, "cpu A"), 1, []string{"fail_share", "worse"}},
		{"another host", resultsWith(4.0, 0, "cpu B"), 0, []string{"WARNING", "CPU model"}},
	}
	for _, c := range cases {
		var out bytes.Buffer
		code, err := compareFiles(&out, specPath, base, write("cur.json", c.cur))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		for _, s := range c.contains {
			if !strings.Contains(out.String(), s) {
				t.Errorf("%s: output lacks %q\n%s", c.name, s, out.String())
			}
		}
	}
	noisy := resultsWith(4.1, 0, "cpu A")
	m := noisy.Workloads[0].EndToEnd["recog_p50_ms"]
	m.IQR = m.Median
	noisy.Workloads[0].EndToEnd["recog_p50_ms"] = m
	var out bytes.Buffer
	if code, err := compareFiles(&out, specPath, base, write("noisy.json", noisy)); err != nil || code != 0 {
		t.Fatalf("noisy rounds: code %d, err %v", code, err)
	}
	if !strings.Contains(out.String(), "unresolved: scan_exit/recog_p50_ms") {
		t.Errorf("rounds noisier than the bound are not reported as unresolved\n%s", out.String())
	}
}
