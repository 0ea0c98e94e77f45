//go:build !race

package main

// raceDetectorOn reports whether this test binary was built with -race;
// the timing smoke tests skip under it.
const raceDetectorOn = false
