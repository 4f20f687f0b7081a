package main

import (
	"math"
	"sort"
)

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), so
// that the spreads printed here are the ones the acceptance rule uses.
// Fewer than two values have no spread: all three are the value itself.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// thirdsSpread splits xs into three consecutive groups and returns the
// distance between the largest and smallest group median as a percentage
// of the pooled median: how much the measurement drifted within one run.
func thirdsSpread(xs []float64) float64 {
	if len(xs) < 3 {
		return 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for g := 0; g < 3; g++ {
		m := median(xs[g*len(xs)/3 : (g+1)*len(xs)/3])
		lo, hi = math.Min(lo, m), math.Max(hi, m)
	}
	return 100 * (hi - lo) / median(xs)
}
