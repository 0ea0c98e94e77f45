//go:build !race

package webclient

// raceDetectorOn reports whether this test binary was built with -race.
// The allocation budget test consults it: the race runtime adds its own
// allocations, so the budget is only meaningful without it.
const raceDetectorOn = false
