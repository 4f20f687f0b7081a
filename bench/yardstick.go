package main

import (
	"sort"
	"strconv"
	"time"
)

// The host this benchmark runs on is shared, and how fast it executes
// memory-bound Go code drifts by tens of percent over minutes (README.md,
// "Host-normalised time"). A time that moves that much between two runs
// of one commit cannot carry a regression bound. So every timed sample is
// scaled by how long a fixed piece of work, the yardstick, took right
// before and after it: the result is milliseconds on a host where the
// yardstick takes yardstickNominalMs, whatever the host did meanwhile.

// yardstickItems is the size of one yardstick pass, and
// yardstickNominalMs its duration on the reference host when quiet. Runs
// at -scale-pct below 100 shrink both in proportion: they are smoke tests,
// and their times are not compared with anything.
const (
	yardstickItems     = 60_000
	yardstickNominalMs = 20.0
)

// yardstickPasses is how many passes one measurement takes; the median
// pass is used, so one preempted pass does not skew the scale.
const yardstickPasses = 3

// yardstickPass is single-threaded allocation, hashing and sorting of
// short strings: the kind of work the engine's data plane and verifier
// do, independent of any code in internal/. Its cost must never change,
// or every bound in BENCHMARK.json changes meaning with it.
func yardstickPass(n int) int {
	counts := make(map[string]int)
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		k := strconv.Itoa(i * 7919 % 100_003)
		counts[k] += i
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return len(counts) + len(keys[0])
}

// yardstickMs measures the host now: the median pass, in milliseconds of
// a full-size pass.
func yardstickMs(pct int) float64 {
	passes := make([]float64, yardstickPasses)
	for i := range passes {
		t0 := time.Now()
		yardstickSink += yardstickPass(scaled(yardstickItems, pct))
		passes[i] = float64(time.Since(t0)) / 1e6 * 100 / float64(pct)
	}
	return median(passes)
}

// hostScale converts a duration measured between two yardstick
// measurements into reference-host time.
func hostScale(before, after float64) float64 {
	return yardstickNominalMs / ((before + after) / 2)
}

// yardstickSink keeps the compiler from discarding the pass.
var yardstickSink int
