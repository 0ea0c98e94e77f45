package bench

import (
	"fmt"
	"strings"
	"testing"
)

func TestAblationRegistry(t *testing.T) {
	want := []string{
		"ablation-location", "ablation-branches", "ablation-tau",
		"ablation-links", "offload-bytes",
		"ablation-concurrency", "ablation-energy", "ablation-bits",
		"exitloop", "streaming", "slo",
	}
	got := Ablations()
	if len(got) != len(want) {
		t.Fatalf("have %d ablations, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Fatalf("ablation[%d] = %s, want %s", i, got[i].ID, id)
		}
		if _, err := ByID(id); err != nil {
			t.Fatalf("ByID(%s): %v", id, err)
		}
	}
}

func TestAblationBranchesQuick(t *testing.T) {
	r := quickRunner()
	if err := r.AblationBranches(); err != nil {
		t.Fatal(err)
	}
	out := output(r)
	if !strings.Contains(out, "E[two](ms)") {
		t.Fatalf("missing columns:\n%s", out)
	}
	// Every delta row must be positive (the §IV-D1 conclusion) — scan the
	// last column.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) != 5 || !strings.HasSuffix(fields[0], "%") {
			continue
		}
		if strings.HasPrefix(fields[4], "-") {
			t.Fatalf("negative two-branch delta in %q", line)
		}
	}
}

func TestAblationTauQuick(t *testing.T) {
	r := quickRunner()
	if err := r.AblationTau(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(output(r), "frontier") {
		t.Fatalf("missing output:\n%s", output(r))
	}
}

func TestAblationLinksQuick(t *testing.T) {
	r := quickRunner()
	if err := r.AblationLinks(); err != nil {
		t.Fatal(err)
	}
	out := output(r)
	for _, link := range []string{"3g", "4g", "paper-4g", "wifi"} {
		if !strings.Contains(out, link) {
			t.Fatalf("missing link %s:\n%s", link, out)
		}
	}
}

func TestAblationLocationQuick(t *testing.T) {
	r := quickRunner()
	if err := r.AblationLocation(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(output(r), "location sweep") {
		t.Fatalf("missing output:\n%s", output(r))
	}
}

func TestAblationConcurrencyQuick(t *testing.T) {
	r := quickRunner()
	if err := r.AblationConcurrency(); err != nil {
		t.Fatal(err)
	}
	out := output(r)
	if !strings.Contains(out, "EdgeOnly p95 wait") || !strings.Contains(out, "LCRS p95 wait") {
		t.Fatalf("missing columns:\n%s", out)
	}
}

func TestAblationEnergyQuick(t *testing.T) {
	r := quickRunner()
	if err := r.AblationEnergy(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(output(r), "energy per recognition") {
		t.Fatalf("missing output:\n%s", output(r))
	}
}

func TestAblationBitsQuick(t *testing.T) {
	r := quickRunner()
	if err := r.AblationBits(); err != nil {
		t.Fatal(err)
	}
	out := output(r)
	if !strings.Contains(out, "precision sweep") || !strings.Contains(out, "float32") {
		t.Fatalf("missing output:\n%s", out)
	}
}

// TestOffloadBytesQuick checks the codec sweep prints the acceptance
// criteria of the offload codec work: payload bytes per codec, the
// accuracy delta alongside, and at least a 3x reduction for q8 vs raw.
func TestOffloadBytesQuick(t *testing.T) {
	r := quickRunner()
	if err := r.OffloadBytes(); err != nil {
		t.Fatal(err)
	}
	out := output(r)
	for _, want := range []string{"Offload codec sweep", "Frame(KB)", "AccDelta(pp)", "Top1 match(%)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	// The summary line carries the measured q8 reduction; parse and check
	// the >= 3x acceptance bar.
	idx := strings.Index(out, "q8 payload reduction vs raw: ")
	if idx < 0 {
		t.Fatalf("missing q8 reduction summary:\n%s", out)
	}
	var ratio float64
	if _, err := fmt.Sscanf(out[idx:], "q8 payload reduction vs raw: %fx", &ratio); err != nil {
		t.Fatalf("parse reduction: %v\n%s", err, out)
	}
	if ratio < 3 {
		t.Fatalf("q8 reduction %.2fx below the 3x bar:\n%s", ratio, out)
	}
}

// TestExitLoopQuick is the headline closed-loop regression test: the
// skewed replay that holds an open-loop exit rate of ~0.17 at the
// screened tau must, with the controller in the loop, recover to
// 0.50±0.05 within the replay and hold there without oscillating beyond
// the hysteresis band. ExitLoop enforces all of that internally and
// errors on any violation; everything is seeded, so the trajectory — and
// this verdict — is deterministic.
func TestExitLoopQuick(t *testing.T) {
	r := quickRunner()
	if err := r.ExitLoop(); err != nil {
		t.Fatal(err)
	}
	out := output(r)
	for _, want := range []string{
		"Closed-loop tau control under class skew",
		"Trailing exit rate", "converged at request",
		"client uptake tau",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

// TestSLOQuick drives the windowed SLO burn-and-recovery experiment end
// to end in quick mode: the agreement floor flips /v1/health to 503
// within a bounded number of provably-disagreeing requests (SLOBurn
// errors if it never flips, flips early, or fails to recover to 200),
// and the three phase rows render for EXPERIMENTS.md.
func TestSLOQuick(t *testing.T) {
	r := quickRunner()
	if err := r.SLOBurn(); err != nil {
		t.Fatal(err)
	}
	out := output(r)
	for _, want := range []string{
		"SLO burn and recovery",
		"healthy", "degraded", "recovered",
		"Objective state", "/v1/health",
		"readiness flipped to 503 after",
		"recovered to 200 one window later",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}
