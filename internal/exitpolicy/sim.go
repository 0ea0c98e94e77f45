package exitpolicy

import "math"

// sim.go is the controller's deterministic test harness: a simulated
// client population replayed against a Controller exactly the way a real
// webclient feeds the edge — exit decisions made locally against the
// current tau, local exits accumulated and piggybacked on the next
// offload, agreement verdicts attached per offload. No randomness and no
// clocks: the same entropy population and controller configuration always
// produce the same trajectory, which is what lets convergence be asserted
// in unit tests rather than eyeballed in bench output. The real-stack
// counterpart (a trained model over an HTTP loopback) lives in
// internal/bench's exitloop experiment.

// SimStep records one simulated request: the entropy drawn, the tau the
// exit decision used, the decision, and the tau after the controller saw
// the request's report (unchanged for local exits, which generate no
// report until piggybacked).
type SimStep struct {
	Request  int
	Entropy  float64
	DecideAt float64 // tau the ShouldExit decision used
	Exited   bool
	Tau      float64 // tau after the request (post-observation)
	Updated  bool    // whether this request's report changed tau
}

// SimClient replays a fixed entropy population round-robin. The
// population is the knob that shapes regimes: a skewed class mix is just
// a population whose entropies sit higher, so drift scenarios are
// constructed by swapping populations mid-run (see DriftTo).
type SimClient struct {
	// Entropies is the replayed population; must be non-empty, values in
	// [0, 1].
	Entropies []float64
	// AgreeBelow makes the simulated binary branch agree with the main
	// branch exactly when the sample's entropy is below it — the
	// confident-samples-agree structure real branches show. Values >= 1
	// mean "always agree"; 0 means "never".
	AgreeBelow float64

	pending int // local exits awaiting the next offload's piggyback
	i       int // round-robin cursor
}

// DriftTo swaps the replayed population, preserving the piggyback backlog
// and cursor — the simulated analogue of the camera panning onto a class
// mix the screening never saw.
func (s *SimClient) DriftTo(entropies []float64) { s.Entropies, s.i = entropies, 0 }

// Drive replays n requests through the controller and returns the full
// trajectory. Each request draws the next entropy, decides locally at the
// controller's current tau (the simulated client always has the freshest
// pushed value — uptake lag is a webclient concern, tested there), and on
// offload reports the piggybacked exits plus an agreement verdict.
func (s *SimClient) Drive(c *Controller, n int) []SimStep {
	steps := make([]SimStep, 0, n)
	for r := 0; r < n; r++ {
		e := s.Entropies[s.i%len(s.Entropies)]
		s.i++
		tau := c.Tau()
		st := SimStep{Request: r, Entropy: e, DecideAt: tau, Tau: tau}
		if ShouldExit(e, tau) {
			s.pending++
			st.Exited = true
		} else {
			st.Tau, st.Updated = c.Observe(Observation{
				LocalExits: s.pending,
				Offloaded:  1,
				Agree:      e < s.AgreeBelow,
				Judged:     true,
			})
			s.pending = 0
		}
		steps = append(steps, st)
	}
	return steps
}

// ExitRate computes the exit rate over a window of steps — the measured
// signal convergence tests compare against the controller's target.
func ExitRate(steps []SimStep) float64 {
	if len(steps) == 0 {
		return 0
	}
	exits := 0
	for _, st := range steps {
		if st.Exited {
			exits++
		}
	}
	return float64(exits) / float64(len(steps))
}

// RampEntropies returns n entropies equidistributed over [lo, hi) via the
// golden-ratio Weyl sequence frac(i*φ): deterministic, uniformly covering
// the range, and well mixed at every window size — a sorted ramp replayed
// round-robin would alternate long all-exit and all-offload streaks and
// distort windowed rates. The population's exit rate at threshold t is
// (t-lo)/(hi-lo) up to discrepancy O(log n / n), so a ramp over [0, 1)
// has exit rate ≈ tau at threshold tau; shifting the ramp right is a
// skew. Convergence tests build their regimes from exactly this.
func RampEntropies(n int, lo, hi float64) []float64 {
	const phi = 0.6180339887498949 // 1/φ, the lowest-discrepancy Weyl stride
	es := make([]float64, n)
	for i := range es {
		f := float64(float64(i) * phi)
		es[i] = lo + float64((hi-lo)*(f-math.Floor(f)))
	}
	return es
}
