package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of xs (the mean of the two middle values
// for an even count). It does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the same
// interpolation as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is how the spread of a metric across runs
// is judged. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) + 1
	cut := func(i int) float64 {
		j := max(1, min(len(s)-1, i*m/4))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs:
// the smallest value with at least a share p of the samples at or
// below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the 0-based nearest-rank index of the p-quantile among n
// sorted samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n)-1e-9)) - 1
	return max(0, min(n-1, i))
}

// tailPercentiles are the percentiles a latency report may quote, from
// the highest down.
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// tailPercentile returns the highest percentile in tailPercentiles that
// still has at least ten of n samples beyond it, and false when even
// the median has fewer (n < 20).
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if n-1-rankIndex(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
