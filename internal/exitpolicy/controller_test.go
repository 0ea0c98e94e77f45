package exitpolicy

import (
	"math"
	"testing"
)

// exitRateCfg is the configuration the convergence tests drive: the
// closed-loop answer to class-skew drift (screened exit rate 0.50
// collapsing to ~0.17 under skew, the regime the exitloop experiment
// replays).
func exitRateCfg(initial float64) Config {
	return Config{Mode: ModeExitRate, Target: 0.5, InitialTau: initial}
}

func mustController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestControllerConvergenceFromSkew is the deterministic heart of the
// closed loop: a population skewed so that only 17% of samples sit below
// the screened tau (the class-skew regime) must be driven back to the 50%
// exit-rate target within a bounded request count, and once converged the
// controller must hold still — no oscillation beyond the hysteresis band.
func TestControllerConvergenceFromSkew(t *testing.T) {
	// A uniform entropy ramp over [0,1): exit rate at threshold t is t.
	// Seeding tau at 0.17 reproduces the skewed regime's 17% exit rate;
	// the target is 0.5, so the controller must walk tau up to ~0.5.
	c := mustController(t, exitRateCfg(0.17))
	sim := &SimClient{Entropies: RampEntropies(200, 0, 1), AgreeBelow: 1}

	const total = 2000
	steps := sim.Drive(c, total)

	// Convergence: find the first request after which every trailing
	// 100-request window's exit rate stays within target ± 0.05.
	const window = 100
	tol := 0.05
	converged := -1
	for start := 0; start+window <= total; start += window {
		rate := ExitRate(steps[start : start+window])
		if math.Abs(rate-0.5) <= tol {
			converged = start + window
			break
		}
	}
	if converged < 0 {
		t.Fatalf("controller never converged to 0.5±%.2f in %d requests (final tau %.3f)",
			tol, total, c.Tau())
	}
	if converged > 800 {
		t.Fatalf("convergence took %d requests, want <= 800", converged)
	}
	// Every window after convergence must stay on target.
	for start := converged; start+window <= total; start += window {
		rate := ExitRate(steps[start : start+window])
		if math.Abs(rate-0.5) > tol+0.02 {
			t.Fatalf("post-convergence window at %d drifted to exit rate %.3f", start, rate)
		}
	}
	// No oscillation beyond the hysteresis band: once converged, tau's
	// total excursion stays within one band width of its settled value.
	settled := steps[total-1].Tau
	for _, st := range steps[converged:] {
		if math.Abs(st.Tau-settled) > c.Config().Band+c.Config().MaxStep {
			t.Fatalf("post-convergence tau %.4f strayed %.4f from settled %.4f (band %.3f)",
				st.Tau, math.Abs(st.Tau-settled), settled, c.Config().Band)
		}
	}
	// The settled threshold must sit near the population's target
	// quantile (0.5 on a uniform ramp).
	if math.Abs(settled-0.5) > 0.1 {
		t.Fatalf("settled tau %.3f far from the 0.5 quantile", settled)
	}
	t.Logf("converged by request %d, settled tau %.3f, updates %d, windows %d",
		converged, settled, c.State().Updates, c.State().Windows)
}

// TestControllerTracksDrift drives the full drift story: converge on a
// balanced population, drift to a skewed one (the class-skew scenario),
// and require re-convergence — the adaptive answer the static screening
// cannot give.
func TestControllerTracksDrift(t *testing.T) {
	c := mustController(t, exitRateCfg(0.5))
	sim := &SimClient{Entropies: RampEntropies(200, 0, 1), AgreeBelow: 1}
	sim.Drive(c, 400)
	if got := c.Tau(); math.Abs(got-0.5) > 0.1 {
		t.Fatalf("balanced phase should hold tau near 0.5, got %.3f", got)
	}
	// Skew: the population shifts right (harder classes), so at the old
	// tau only ~17% would exit. The controller must raise tau until half
	// the new population exits (its median, ~0.66).
	sim.DriftTo(RampEntropies(200, 0.33, 1))
	steps := sim.Drive(c, 1500)
	tail := ExitRate(steps[len(steps)-300:])
	if math.Abs(tail-0.5) > 0.05 {
		t.Fatalf("post-drift exit rate %.3f, want 0.5±0.05 (tau %.3f)", tail, c.Tau())
	}
	if tau := c.Tau(); math.Abs(tau-0.665) > 0.1 {
		t.Fatalf("post-drift tau %.3f, want near the skewed median 0.665", tau)
	}
}

// TestControllerHysteresisHoldsInsideBand pins the dead band: windows
// whose signal sits within Band of Target change nothing.
func TestControllerHysteresisHoldsInsideBand(t *testing.T) {
	cfg := Config{Mode: ModeExitRate, Target: 0.5, Band: 0.1, Window: 10, InitialTau: 0.5}
	c := mustController(t, cfg)
	// Feed windows at exactly 0.5 (in band) and at 0.55 (still in band).
	for _, exits := range []int{5, 6} {
		before := c.Tau()
		tau, updated := c.Observe(Observation{LocalExits: exits, Offloaded: 10 - exits})
		if updated || tau != before {
			t.Fatalf("in-band window (exit rate %.2f) moved tau %.3f -> %.3f", float64(exits)/10, before, tau)
		}
		st := c.State()
		if st.LastStep != 0 {
			t.Fatalf("in-band window recorded step %v", st.LastStep)
		}
	}
	// A window clearly outside the band must move tau.
	if _, updated := c.Observe(Observation{LocalExits: 0, Offloaded: 10}); !updated {
		t.Fatal("out-of-band window (exit rate 0) must update tau")
	}
}

// TestControllerClampRespectsBoundary: the clamp range honours the strict
// ShouldExit boundary — tau never leaves [MinTau, MaxTau] even under a
// relentlessly one-sided stream, and the extremes keep their documented
// meaning (MinTau=0 exits nothing, so the controller parks there when the
// target demands fewer exits than possible).
func TestControllerClampRespectsBoundary(t *testing.T) {
	cfg := Config{Mode: ModeExitRate, Target: 0.5, Window: 4, MinTau: 0.2, MaxTau: 0.8, InitialTau: 0.5}
	c := mustController(t, cfg)
	// Exit rate pinned at 1: the controller wants tau lower, forever.
	for i := 0; i < 200; i++ {
		tau, _ := c.Observe(Observation{LocalExits: 4})
		if tau < cfg.MinTau || tau > cfg.MaxTau {
			t.Fatalf("tau %.4f escaped clamp [%v, %v]", tau, cfg.MinTau, cfg.MaxTau)
		}
	}
	if got := c.Tau(); got != cfg.MinTau {
		t.Fatalf("saturated-low tau %.4f, want parked at MinTau %v", got, cfg.MinTau)
	}
	// And the opposite wall.
	for i := 0; i < 200; i++ {
		c.Observe(Observation{Offloaded: 4})
	}
	if got := c.Tau(); got != cfg.MaxTau {
		t.Fatalf("saturated-high tau %.4f, want parked at MaxTau %v", got, cfg.MaxTau)
	}
	// Clamped-at-wall windows must not count as updates once parked.
	st := c.State()
	updatesAtWall := st.Updates
	c.Observe(Observation{Offloaded: 4})
	if got := c.State().Updates; got != updatesAtWall {
		t.Fatalf("parked controller counted an update (%d -> %d)", updatesAtWall, got)
	}
}

// TestControllerAgreementMode: low agreement lowers tau (exits are
// untrustworthy), high agreement raises it.
func TestControllerAgreementMode(t *testing.T) {
	cfg := Config{Mode: ModeAgreement, Target: 0.8, Window: 10, InitialTau: 0.5}
	c := mustController(t, cfg)
	// 10 judged offloads, 3 agree: agreement 0.3, far below 0.8.
	for i := 0; i < 10; i++ {
		c.Observe(Observation{Offloaded: 1, Judged: true, Agree: i < 3})
	}
	if got := c.Tau(); got >= 0.5 {
		t.Fatalf("low agreement must lower tau, got %.3f", got)
	}
	low := c.Tau()
	// Perfect agreement: headroom, tau may rise.
	for i := 0; i < 10; i++ {
		c.Observe(Observation{Offloaded: 1, Judged: true, Agree: true})
	}
	if got := c.Tau(); got <= low {
		t.Fatalf("high agreement must raise tau, got %.3f (from %.3f)", got, low)
	}
}

// TestControllerUtilizationMode: utilization above the ceiling raises tau
// (shed offloads); utilization below it relaxes tau back down.
func TestControllerUtilizationMode(t *testing.T) {
	cfg := Config{Mode: ModeUtilization, Target: 0.6, Window: 10, InitialTau: 0.5}
	c := mustController(t, cfg)
	// All offloads: utilization 1 > 0.6 ceiling -> raise tau.
	for i := 0; i < 10; i++ {
		c.Observe(Observation{Offloaded: 1})
	}
	if got := c.Tau(); got <= 0.5 {
		t.Fatalf("over-ceiling utilization must raise tau, got %.3f", got)
	}
	high := c.Tau()
	// All exits: utilization 0 -> relax tau.
	c.Observe(Observation{LocalExits: 10})
	if got := c.Tau(); got >= high {
		t.Fatalf("under-ceiling utilization must lower tau, got %.3f (from %.3f)", got, high)
	}
}

// TestControllerSeeding covers AdoptClientTau: unseeded controllers
// accumulate but never update, the first Seed wins, and later seeds are
// ignored.
func TestControllerSeeding(t *testing.T) {
	cfg := Config{Mode: ModeExitRate, Target: 0.5, Window: 4, AdoptClientTau: true}
	c := mustController(t, cfg)
	if c.Seeded() {
		t.Fatal("AdoptClientTau controller must start unseeded")
	}
	if _, updated := c.Observe(Observation{Offloaded: 8}); updated {
		t.Fatal("unseeded controller must not update tau")
	}
	if !c.Seed(0.3) {
		t.Fatal("first Seed must adopt")
	}
	if c.Seed(0.9) {
		t.Fatal("second Seed must be a no-op")
	}
	if got := c.Tau(); got != 0.3 {
		t.Fatalf("tau %.3f, want adopted 0.3", got)
	}
	// Seeds outside the clamp range are clamped, and NaN is refused.
	c2 := mustController(t, Config{Mode: ModeExitRate, Target: 0.5, MinTau: 0.2, MaxTau: 0.8, AdoptClientTau: true})
	if c2.Seed(math.NaN()) {
		t.Fatal("NaN seed must be refused")
	}
	c2.Seed(1.5)
	if got := c2.Tau(); got != 0.8 {
		t.Fatalf("out-of-range seed must clamp to MaxTau, got %.3f", got)
	}
}

// TestControllerConfigValidate sweeps the rejection table.
func TestControllerConfigValidate(t *testing.T) {
	base := Config{Mode: ModeExitRate, Target: 0.5}
	if _, err := base.Validate(); err != nil {
		t.Fatalf("minimal config rejected: %v", err)
	}
	bad := []Config{
		{Mode: "bogus", Target: 0.5},
		{Mode: ModeExitRate, Target: 0},
		{Mode: ModeExitRate, Target: 1},
		{Mode: ModeExitRate, Target: math.NaN()},
		{Mode: ModeExitRate, Target: 0.5, Band: 0.5},
		{Mode: ModeExitRate, Target: 0.5, Band: -0.1},
		{Mode: ModeExitRate, Target: 0.5, Gain: -1},
		{Mode: ModeExitRate, Target: 0.5, MaxStep: 2},
		{Mode: ModeExitRate, Target: 0.5, MaxStep: -0.1},
		{Mode: ModeExitRate, Target: 0.5, MinTau: 0.9, MaxTau: 0.5},
		{Mode: ModeExitRate, Target: 0.5, MinTau: -0.1},
		{Mode: ModeExitRate, Target: 0.5, MaxTau: 1.5},
		{Mode: ModeExitRate, Target: 0.5, Window: -3},
		{Mode: ModeExitRate, Target: 0.5, InitialTau: 1.5},
		{Mode: ModeExitRate, Target: 0.5, InitialTau: math.NaN()},
	}
	for i, cfg := range bad {
		if _, err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	// Defaults fill in.
	norm, err := base.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Band != 0.05 || norm.Gain != 0.5 || norm.MaxStep != 0.08 ||
		norm.MaxTau != 1 || norm.Window != 16 {
		t.Fatalf("defaults not applied: %+v", norm)
	}
}

// TestControllerStateSnapshot sanity-checks the JSON-facing snapshot.
func TestControllerStateSnapshot(t *testing.T) {
	c := mustController(t, Config{Mode: ModeExitRate, Target: 0.5, Window: 8, InitialTau: 0.4})
	c.Observe(Observation{LocalExits: 1, Offloaded: 2})
	st := c.State()
	if st.Mode != ModeExitRate || st.Target != 0.5 || !st.Seeded {
		t.Fatalf("state header wrong: %+v", st)
	}
	if st.Pending != 3 {
		t.Fatalf("pending %d, want 3", st.Pending)
	}
	if st.Tau != 0.4 || st.Windows != 0 {
		t.Fatalf("pre-window state wrong: %+v", st)
	}
	// Complete the window (all offloads: rate far below target).
	c.Observe(Observation{Offloaded: 5})
	st = c.State()
	if st.Windows != 1 || st.Updates != 1 || st.Pending != 0 {
		t.Fatalf("post-window state wrong: %+v", st)
	}
	if st.LastSignal != 1.0/8 || st.LastStep <= 0 {
		t.Fatalf("window summary wrong: %+v", st)
	}
}
