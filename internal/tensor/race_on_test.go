//go:build race

package tensor

// raceDetectorOn reports whether this test binary was built with -race.
// See race_off_test.go.
const raceDetectorOn = true
