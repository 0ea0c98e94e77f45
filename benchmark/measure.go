package main

import (
	"runtime"
	"sort"
	"time"
)

// Round accounting. A workload is measured as a sequence of rounds of a
// fixed op count; everything a metric needs is read at round boundaries
// only (wall clock, getrusage, MemStats), so the timed region contains
// nothing but the ops themselves and one time.Now pair per op.

// opKind says which path answered an op.
type opKind uint8

const (
	kindNone    opKind = iota // no answer: the op failed
	kindExit                  // binary branch answered locally
	kindHit                   // session cache answered
	kindOffload               // the edge answered
)

// outcome is what one op returned, in the form the correctness gate and
// the traced-pass validity check compare.
type outcome struct {
	kind    opKind
	pred    int32
	payload int32 // request-frame bytes sent (0 unless kindOffload)
}

// roundRec is one measured round.
type roundRec struct {
	ops     int
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64  // MemStats.TotalAlloc delta
	gc      uint32  // MemStats.NumGC delta
	heapEnd uint64  // MemStats.HeapInuse at the round's end
	calibMs float64 // the calibration loop, timed just before the round

	lat    []time.Duration // per op, indexed like the round's op list
	got    []outcome
	failed int // errored, refused, or answered differently from the reference
}

// warmup is the number of leading ops of a round excluded from latency
// samples (never from counts): 5 %, at least 4.
func warmup(ops int) int {
	w := ops / 20
	if w < 4 {
		w = 4
	}
	if w > ops/2 {
		w = ops / 2
	}
	return w
}

// measureRound runs body between two boundary reads. lat and got are
// allocated before the first read so the benchmark's own bookkeeping stays
// out of alloc_kb_per_recog.
func measureRound(ops int, body func(rec *roundRec)) *roundRec {
	rec := &roundRec{ops: ops, lat: make([]time.Duration, ops), got: make([]outcome, ops)}
	rec.calibMs = calibrate()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := processCPU()
	t0 := time.Now()
	body(rec)
	rec.wall = time.Since(t0)
	rec.cpu = processCPU() - c0
	runtime.ReadMemStats(&m1)
	rec.alloc = m1.TotalAlloc - m0.TotalAlloc
	rec.gc = m1.NumGC - m0.NumGC
	rec.heapEnd = m1.HeapInuse
	return rec
}

// p50Ms is the round's median op latency after warm-up, in ms.
func (r *roundRec) p50Ms() float64 {
	return quantileMs(r.lat[warmup(r.ops):], 0.5)
}

func (r *roundRec) perSecond() float64 { return float64(r.ops) / r.wall.Seconds() }

func (r *roundRec) cpuMsPerOp() float64 { return ms(r.cpu) / float64(r.ops) }

var calibX, calibY = make([]float32, 1<<14), make([]float32, 1<<14)

// calibrate times a fixed pure-Go saxpy loop (≈3.3 M multiply-adds on one
// thread). It is reported next to every round as host.calib_ms so that a slow
// spell of the machine is visible in the results; it is never used to
// rescale a measurement (README, noise policy, says why not).
func calibrate() float64 {
	for i := range calibX {
		calibX[i] = float32(i&255) * 0.001
		calibY[i] = 0
	}
	t0 := time.Now()
	for it := 0; it < 200; it++ {
		a := float32(it&7) * 0.125
		for i, x := range calibX {
			calibY[i] += a * x
		}
	}
	return ms(time.Since(t0))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantileMs returns the q-quantile of d in ms (nearest rank on a sorted
// copy); 0 for an empty sample.
func quantileMs(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return ms(s[rank(len(s), q)])
}

// quantileUs is quantileMs in µs.
func quantileUs(d []time.Duration, q float64) float64 { return quantileMs(d, q) * 1e3 }

func rank(n int, q float64) int {
	i := int(q * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}

// median of v; 0 for an empty sample.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// iqr is the distance between the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method), so
// the spread this program reports is the one the acceptance check takes.
func iqr(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(3) - q(1)
}

// best is the quietest round: the minimum of v when lower is better, the
// maximum otherwise.
func best(v []float64, lowerIsBetter bool) float64 {
	if len(v) == 0 {
		return 0
	}
	b := v[0]
	for _, x := range v[1:] {
		if (lowerIsBetter && x < b) || (!lowerIsBetter && x > b) {
			b = x
		}
	}
	return b
}
