package bench

import (
	"context"
	"fmt"
	"net/http/httptest"

	"lcrs/internal/edge"
	"lcrs/internal/exitpolicy"
	"lcrs/internal/webclient"
)

// ExitLoop replays a class-skewed sample stream — only the class whose
// screening entropies run highest, which drags the exit rate from the
// screened 50% down to ~17% at a fixed tau — against an edge with a tau
// controller (edge.WithTauControl, DESIGN.md §12). The controller adopts the
// client's screening-time tau from its first telemetry frame, watches the
// windowed exit rate sag under the skew, and walks the threshold up in
// bounded, hysteresis-damped steps; each adjustment rides back to the
// client in the infer response and shifts its subsequent ShouldExit
// decisions. The experiment renders the tau trajectory and the trailing
// exit rate, then enforces the convergence contract — recovery to
// 0.50±0.05 within the replay, no tau oscillation beyond one hysteresis
// band plus one step in the settled tail — as hard errors, so running it
// in CI is a real closed-loop regression test, not a demo. Everything is
// seeded, so the trajectory is deterministic.
func (r *Runner) ExitLoop() error {
	arch, ds := "resnet18", "cifar10"
	requests, tail := 600, 150
	if r.Cfg.Quick {
		arch, ds = "lenet", "mnist"
		requests, tail = 400, 100
	}
	tm, err := r.train(arch, ds)
	if err != nil {
		return err
	}
	replayTau := exitpolicy.ScreenForExitRate(tm.ev.Entropies, 0.5)
	skewClass := hardestClass(tm)
	skewed := skewedReplay(tm, skewClass, requests)
	if len(skewed) == 0 {
		return fmt.Errorf("bench: no samples of skew class %d", skewClass)
	}
	openLoop := skewedOpenLoopRate(tm, skewClass, replayTau)

	ctrlCfg := exitpolicy.Config{
		Mode: exitpolicy.ModeExitRate, Target: 0.5,
		Band: 0.05, Gain: 0.5, MaxStep: 0.08, Window: 16,
		AdoptClientTau: true,
	}
	s, err := edge.New(edge.WithTauControl(ctrlCfg))
	if err != nil {
		return err
	}
	defer s.Close()
	if _, err := s.Register(arch, tm.model); err != nil {
		return err
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	ctx := context.Background()
	// WithExitFlush keeps the loop alive through all-exit regimes: if the
	// controller overshoots past the whole entropy cluster, exits would
	// otherwise stop producing frames and the controller would freeze at
	// the overshot threshold with no feedback to walk it back.
	c, err := webclient.New(srv.URL,
		webclient.WithHTTPClient(srv.Client()),
		webclient.WithExitFlush(25))
	if err != nil {
		return err
	}
	if err := c.LoadModel(ctx, arch, arch, tm.model.Cfg, replayTau); err != nil {
		return err
	}

	r.printf("Closed-loop tau control under class skew (%s, seed tau=%.3f screened for a 50%% exit rate, open-loop skewed exit rate %.2f, target %.2f±%.2f, %d requests)\n",
		arch, replayTau, openLoop, ctrlCfg.Target, ctrlCfg.Band, requests)

	exited := make([]bool, requests)
	taus := make([]float64, requests)
	trailing := func(i int) float64 { // exit rate over the tail window ending at i
		if i+1 < tail {
			return -1
		}
		n := 0
		for j := i + 1 - tail; j <= i; j++ {
			if exited[j] {
				n++
			}
		}
		return float64(n) / float64(tail)
	}
	header := []string{"Request", "Tau", "Trailing exit rate"}
	var rows [][]string
	checkpoint := requests / 8
	for i := 0; i < requests; i++ {
		x, _ := tm.test.Sample(skewed[i%len(skewed)])
		res, err := c.Recognize(ctx, x)
		if err != nil {
			return err
		}
		exited[i] = res.Exited
		taus[i] = c.Tau() // includes any push this request carried back
		if (i+1)%checkpoint == 0 || i == requests-1 {
			tr := "-"
			if v := trailing(i); v >= 0 {
				tr = fmt.Sprintf("%.2f", v)
			}
			rows = append(rows, []string{fmt.Sprint(i + 1), fmt.Sprintf("%.3f", taus[i]), tr})
		}
	}
	r.table(header, rows)

	// Convergence: the first request whose trailing-window exit rate is
	// inside the target band, and the tail must still be there.
	converged := -1
	for i := tail - 1; i < requests; i++ {
		if v := trailing(i); v >= ctrlCfg.Target-ctrlCfg.Band && v <= ctrlCfg.Target+ctrlCfg.Band {
			converged = i + 1
			break
		}
	}
	tailRate := trailing(requests - 1)
	lo, hi := taus[requests-tail], taus[requests-tail]
	for _, v := range taus[requests-tail:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	final, err := fetchExitStats(srv.URL, arch)
	if err != nil {
		return err
	}
	ctrl := final.Controller
	if ctrl == nil {
		return fmt.Errorf("bench: /v1/exitstats is missing the controller block")
	}
	r.printf("converged at request %d; trailing exit rate %.2f; settled tau %.3f (moved %+.3f from seed, tail excursion %.3f); controller: %d windows, %d updates, client uptake tau %.3f\n",
		converged, tailRate, taus[requests-1], taus[requests-1]-replayTau, hi-lo,
		ctrl.Windows, ctrl.Updates, ctrl.ClientTau)

	// The convergence contract, enforced — this is the closed-loop
	// regression test the experiment exists for.
	if converged < 0 {
		return fmt.Errorf("bench: exit rate never reached %.2f±%.2f within %d requests",
			ctrlCfg.Target, ctrlCfg.Band, requests)
	}
	if d := tailRate - ctrlCfg.Target; d < -ctrlCfg.Band || d > ctrlCfg.Band {
		return fmt.Errorf("bench: trailing exit rate %.2f left the %.2f±%.2f band", tailRate, ctrlCfg.Target, ctrlCfg.Band)
	}
	if maxExcursion := ctrlCfg.Band + ctrlCfg.MaxStep; hi-lo > maxExcursion {
		return fmt.Errorf("bench: settled tau oscillates by %.3f, beyond the %.3f hysteresis+step allowance", hi-lo, maxExcursion)
	}
	// Uptake: the tau the last telemetry frame reported must track the
	// client's current threshold. The frame reports the value its own
	// decision used — one push behind at most — and the wire rounds it
	// to float32, so allow one step plus rounding.
	if d := ctrl.ClientTau - taus[requests-1]; d < -(ctrlCfg.MaxStep+1e-6) || d > ctrlCfg.MaxStep+1e-6 {
		return fmt.Errorf("bench: client uptake stalled: edge sees tau %.3f, client holds %.3f", ctrl.ClientTau, taus[requests-1])
	}
	return nil
}

// skewedOpenLoopRate is the exit rate the skewed stream would hold at a
// fixed tau — the screening entropies of the skew class judged against
// it. ExitLoop prints it as the uncorrected baseline the controller
// recovers from.
func skewedOpenLoopRate(tm *trainedModel, skewClass int, tau float64) float64 {
	exits, n := 0, 0
	for i, e := range tm.ev.Entropies {
		if i >= tm.test.Len() {
			break
		}
		if _, y := tm.test.Sample(i); y != skewClass {
			continue
		}
		n++
		if exitpolicy.ShouldExit(e, tau) {
			exits++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(exits) / float64(n)
}

// hardestClass returns the class with the highest mean screening entropy.
// Screening evaluation order matches the test set, so labels line up.
func hardestClass(tm *trainedModel) int {
	sum := make([]float64, tm.test.Classes)
	cnt := make([]int, tm.test.Classes)
	for i, e := range tm.ev.Entropies {
		if i >= tm.test.Len() {
			break
		}
		_, y := tm.test.Sample(i)
		sum[y] += e
		cnt[y]++
	}
	best, bestMean := 0, -1.0
	for c := range sum {
		if cnt[c] == 0 {
			continue
		}
		if m := sum[c] / float64(cnt[c]); m > bestMean {
			best, bestMean = c, m
		}
	}
	return best
}

// skewedReplay lists n test-set indices of skewClass, cycling through its
// samples when the test set holds fewer than n of them — it is a replayed
// workload, so repeats are fine.
func skewedReplay(tm *trainedModel, skewClass, n int) []int {
	var classIdx, skewed []int
	for i := 0; i < tm.test.Len(); i++ {
		if _, y := tm.test.Sample(i); y == skewClass {
			classIdx = append(classIdx, i)
		}
	}
	for i := 0; len(classIdx) > 0 && i < n; i++ {
		skewed = append(skewed, classIdx[i%len(classIdx)])
	}
	return skewed
}

// fetchExitStats reads the model's row from GET /v1/exitstats — the same
// JSON view an operator scrapes, so the experiment exercises the endpoint
// rather than the server handle.
func fetchExitStats(base, model string) (edge.ExitStats, error) {
	var all []edge.ExitStats
	if err := getInto(base+"/v1/exitstats", &all); err != nil {
		return edge.ExitStats{}, err
	}
	for _, es := range all {
		if es.Name == model {
			return es, nil
		}
	}
	return edge.ExitStats{}, fmt.Errorf("bench: model %q missing from /v1/exitstats", model)
}
