//go:build !race

package tensor

// raceDetectorOn reports whether this test binary was built with -race.
// The zero-allocation test consults it: the race runtime adds its own
// allocations and drops pooled objects at random, so the budget is only
// meaningful without it.
const raceDetectorOn = false
