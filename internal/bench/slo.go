package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"lcrs/internal/edge"
	"lcrs/internal/slo"
	"lcrs/internal/webclient"
)

// SLOBurn replays the test set through a real client against an edge
// graded by the windowed SLO engine (internal/slo) and watches
// /v1/health flip.
// Three phases on an injected clock, no sleeping:
//
//  1. healthy — samples both branches classify correctly, so the binary
//     and main predictions provably coincide: agreement 1.0, ready (200).
//  2. degraded — samples exactly one branch classifies correctly, so the
//     predictions provably differ: agreement 0.0 crashes through the
//     floor and readiness goes 503 within a bounded number of requests
//     (MinSamples — fewer bad requests cannot flip it by construction).
//  3. recovered — the clock rolls the windows past the bad burst, clean
//     replay refills them, and readiness returns to 200.
//
// Deterministic by construction: phase membership comes from the seeded
// screening evaluation (BinaryCorrect vs MainCorrect per sample), not
// from thresholds that happen to hold, and window placement comes from
// the injected clock. The client runs tau=0 (never exit) so every sample
// offloads with telemetry and is judged for agreement.
func (r *Runner) SLOBurn() error {
	arch, ds := "resnet18", "cifar10"
	if r.Cfg.Quick {
		arch, ds = "lenet", "mnist"
	}
	tm, err := r.train(arch, ds)
	if err != nil {
		return err
	}
	perPhase := 30
	if r.Cfg.Quick {
		perPhase = 12
	}
	agreeIdx, disagreeIdx := agreementPhases(tm, perPhase)
	if len(disagreeIdx) == 0 {
		return fmt.Errorf("bench: screening found no branch-disagreement samples to replay (binary and main branches identical?)")
	}

	cfg := slo.Config{
		Window:       24 * time.Second,
		FastWindow:   6 * time.Second,
		MinSamples:   8,
		MinAgreement: 0.6,
		MaxErrorRate: 0.5,
	}
	clk := &benchClock{t: time.Unix(2000, 0)}
	s, err := edge.New(edge.WithSLO(cfg))
	if err != nil {
		return err
	}
	s.SLO().SetClock(clk.Now)
	defer s.Close()
	if _, err := s.Register(arch, tm.model); err != nil {
		return err
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	ctx := context.Background()
	c, err := webclient.New(srv.URL, webclient.WithHTTPClient(srv.Client()))
	if err != nil {
		return err
	}
	if err := c.LoadModel(ctx, arch, arch, tm.model.Cfg, 0); err != nil { // tau=0: always offload
		return err
	}

	r.printf("SLO burn and recovery (%s, agreement floor %.2f over %v window / %v fast, min %d samples)\n",
		arch, cfg.MinAgreement, cfg.Window, cfg.FastWindow, cfg.MinSamples)

	replay := func(indices []int) error {
		for _, idx := range indices {
			x, _ := tm.test.Sample(idx)
			if _, err := c.Recognize(ctx, x); err != nil {
				return err
			}
		}
		return nil
	}
	probe := func() (int, string, float64, error) {
		code, err := healthCode(srv.URL)
		if err != nil {
			return 0, "", 0, err
		}
		var v slo.Verdict
		if err := getInto(srv.URL+"/v1/slo", &v); err != nil {
			return 0, "", 0, err
		}
		state, value := "-", -1.0
		for _, t := range v.Targets {
			for _, o := range t.Objectives {
				if o.Name == slo.ObjAgreement {
					state, value = o.State, o.Value
				}
			}
		}
		return code, state, value, nil
	}

	header := []string{"Phase", "Samples", "Agreement window", "Objective state", "/v1/health"}
	var rows [][]string
	addRow := func(phase string, n int) error {
		code, state, value, err := probe()
		if err != nil {
			return err
		}
		val := "-"
		if value >= 0 {
			val = fmt.Sprintf("%.2f", value)
		}
		rows = append(rows, []string{phase, fmt.Sprint(n), val, state, fmt.Sprint(code)})
		return nil
	}

	// Phase 1: provable agreement.
	if err := replay(agreeIdx); err != nil {
		return err
	}
	if err := addRow("healthy", len(agreeIdx)); err != nil {
		return err
	}
	code, _, _, err := probe()
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("bench: healthy phase left /v1/health at %d, want 200", code)
	}

	// Phase 2: provable disagreement; count requests until the flip.
	flippedAfter := -1
	for i, idx := range disagreeIdx {
		x, _ := tm.test.Sample(idx)
		if _, err := c.Recognize(ctx, x); err != nil {
			return err
		}
		if flippedAfter < 0 {
			if code, err := healthCode(srv.URL); err != nil {
				return err
			} else if code == http.StatusServiceUnavailable {
				flippedAfter = i + 1
			}
		}
	}
	if err := addRow("degraded", len(disagreeIdx)); err != nil {
		return err
	}
	if flippedAfter < 0 {
		return fmt.Errorf("bench: agreement floor never flipped /v1/health to 503 over %d disagreeing requests", len(disagreeIdx))
	}
	if flippedAfter < int(cfg.MinSamples) {
		return fmt.Errorf("bench: health flipped after %d requests, below the %d-sample burn floor", flippedAfter, cfg.MinSamples)
	}

	// Phase 3: roll the windows past the burst, refill clean.
	clk.Advance(cfg.Window + time.Second)
	if err := replay(agreeIdx); err != nil {
		return err
	}
	if err := addRow("recovered", len(agreeIdx)); err != nil {
		return err
	}
	code, _, _, err = probe()
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("bench: /v1/health stuck at %d after recovery, want 200", code)
	}

	r.table(header, rows)
	r.printf("readiness flipped to 503 after %d disagreeing requests (burn floor %d) and recovered to 200 one window later\n",
		flippedAfter, cfg.MinSamples)
	return nil
}

// agreementPhases splits the screening evaluation into replay sets with
// provable agreement behaviour: both-correct samples must agree (both
// predictions equal the label); exactly-one-correct samples must
// disagree. Sets are cycled up to perPhase — it is a replayed workload,
// so repeats are fine.
func agreementPhases(tm *trainedModel, perPhase int) (agree, disagree []int) {
	var agreeable, disagreeable []int
	for i := 0; i < tm.test.Len() && i < len(tm.ev.BinaryCorrect) && i < len(tm.ev.MainCorrect); i++ {
		switch {
		case tm.ev.BinaryCorrect[i] && tm.ev.MainCorrect[i]:
			agreeable = append(agreeable, i)
		case tm.ev.BinaryCorrect[i] != tm.ev.MainCorrect[i]:
			disagreeable = append(disagreeable, i)
		}
	}
	for i := 0; len(agreeable) > 0 && i < perPhase; i++ {
		agree = append(agree, agreeable[i%len(agreeable)])
	}
	for i := 0; len(disagreeable) > 0 && i < perPhase; i++ {
		disagree = append(disagree, disagreeable[i%len(disagreeable)])
	}
	return agree, disagree
}

// getInto decodes a JSON GET endpoint into out.
func getInto(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bench: GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// healthCode returns the /v1/health status code (200 ready, 503 burning).
func healthCode(base string) (int, error) {
	resp, err := http.Get(base + "/v1/health")
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// benchClock is the injectable time source driving SLO windows.
type benchClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *benchClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *benchClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}
