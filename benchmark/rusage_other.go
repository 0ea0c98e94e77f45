//go:build !unix

package main

import "time"

// processCPU has no getrusage to read here; cpu_ms_per_recog reads 0.
func processCPU() time.Duration { return 0 }
