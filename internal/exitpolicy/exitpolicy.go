// Package exitpolicy implements the paper's early-exit rule for the binary
// branch: the normalized entropy of the branch's softmax output (Eq. 7)
// compared against a threshold tau, plus the BranchyNet-style screening
// procedure used to pick tau per network and dataset.
package exitpolicy

import (
	"fmt"
	"math"
	"sort"
)

// NormalizedEntropy computes S(x) in [0,1] for a probability vector
// (Eq. 7): the Shannon entropy divided by log|C|. Zero probabilities
// contribute zero. A uniform distribution scores 1; a one-hot scores 0.
func NormalizedEntropy(probs []float32) float64 {
	if len(probs) < 2 {
		panic(fmt.Sprintf("exitpolicy: need at least 2 classes, got %d", len(probs)))
	}
	var h float64
	for _, p := range probs {
		if p > 0 {
			h -= float64(float64(p) * math.Log(float64(p)))
		}
	}
	return h / math.Log(float64(len(probs)))
}

// ShouldExit reports whether a sample with the given normalized entropy
// exits from the binary branch (Algorithm 2 line 5: e < tau).
//
// The comparison is strict, and that boundary is load-bearing contract,
// not an implementation detail: entropy == tau does NOT exit. The
// consequences at the ends of the range are pinned by
// TestShouldExitBoundary and relied on across the stack:
//
//	tau == 0  exits nothing (even a zero-entropy one-hot stays),
//	          so 0 is the safe "disable local exits" setting;
//	tau == 1  exits everything except exactly-uniform softmax outputs
//	          (entropy == 1), which still offload.
//
// ScreenForExitRate's +1e-9 nudges and the Controller's clamp range
// ([MinTau, MaxTau] ⊆ [0, 1]) both assume this strictness; changing it
// to <= would silently shift every screened threshold and the
// controller's boundary behavior.
func ShouldExit(entropy, tau float64) bool { return entropy < tau }

// Stats summarizes an exit policy evaluated over a labelled set.
type Stats struct {
	// Tau is the threshold evaluated.
	Tau float64
	// ExitRate is the fraction of samples exiting from the binary branch.
	ExitRate float64
	// ExitAccuracy is the accuracy of the binary branch over exited samples
	// (1 if none exit, by convention).
	ExitAccuracy float64
	// CombinedAccuracy is the end-to-end accuracy: binary prediction for
	// exited samples, main-branch prediction for the rest.
	CombinedAccuracy float64
}

// Evaluate computes Stats for threshold tau given per-sample binary-branch
// entropies and correctness of both branches.
func Evaluate(tau float64, entropies []float64, binaryCorrect, mainCorrect []bool) Stats {
	if len(entropies) != len(binaryCorrect) || len(entropies) != len(mainCorrect) {
		panic("exitpolicy: Evaluate slice lengths differ")
	}
	n := len(entropies)
	exited, exitedCorrect, combinedCorrect := 0, 0, 0
	for i, e := range entropies {
		if ShouldExit(e, tau) {
			exited++
			if binaryCorrect[i] {
				exitedCorrect++
				combinedCorrect++
			}
		} else if mainCorrect[i] {
			combinedCorrect++
		}
	}
	s := Stats{Tau: tau, ExitRate: float64(exited) / float64(n), ExitAccuracy: 1,
		CombinedAccuracy: float64(combinedCorrect) / float64(n)}
	if exited > 0 {
		s.ExitAccuracy = float64(exitedCorrect) / float64(exited)
	}
	return s
}

// ScreenForExitRate returns the smallest tau achieving at least the target
// exit rate over the calibration entropies, mirroring BranchyNet's
// screening over a validation run. targetRate must be in (0, 1].
func ScreenForExitRate(entropies []float64, targetRate float64) float64 {
	if targetRate <= 0 || targetRate > 1 {
		panic(fmt.Sprintf("exitpolicy: target exit rate %v out of (0,1]", targetRate))
	}
	sorted := append([]float64(nil), entropies...)
	sort.Float64s(sorted)
	k := int(math.Ceil(targetRate * float64(len(sorted))))
	if k >= len(sorted) {
		return sorted[len(sorted)-1] + 1e-9
	}
	// Exit condition is strict (e < tau), so tau just above the k-th
	// smallest entropy lets exactly k samples exit.
	return sorted[k-1] + 1e-9
}

// ScreenAccuracyPreserving picks the largest tau whose exited samples are
// at least as accurate as the better branch overall — the BranchyNet-style
// criterion the paper adopts: early exiting must not degrade end-to-end
// accuracy relative to running the main branch. When the binary branch is
// the stronger one (trivially easy data), everything may exit.
func ScreenAccuracyPreserving(entropies []float64, binaryCorrect, mainCorrect []bool) (float64, Stats) {
	target := fraction(mainCorrect)
	if b := fraction(binaryCorrect); b > target {
		target = b
	}
	return Screen(entropies, binaryCorrect, mainCorrect, target)
}

func fraction(bs []bool) float64 {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return float64(n) / float64(len(bs))
}

// Screen picks the largest tau whose exit accuracy stays at or above
// minExitAccuracy, scanning candidate thresholds at every observed entropy.
// It returns the chosen tau and its Stats. When even the strictest
// threshold misses the constraint, it returns the strictest threshold
// (exit nothing) with its stats.
func Screen(entropies []float64, binaryCorrect, mainCorrect []bool, minExitAccuracy float64) (float64, Stats) {
	type cand struct{ tau float64 }
	sorted := append([]float64(nil), entropies...)
	sort.Float64s(sorted)
	best := sorted[0] / 2 // below the smallest entropy: exit nothing
	bestStats := Evaluate(best, entropies, binaryCorrect, mainCorrect)
	for _, e := range sorted {
		tau := e + 1e-9
		st := Evaluate(tau, entropies, binaryCorrect, mainCorrect)
		if st.ExitAccuracy >= minExitAccuracy && st.ExitRate >= bestStats.ExitRate {
			best, bestStats = tau, st
		}
	}
	return best, bestStats
}
