// Package stats holds the order statistics the benchmark reports.
package stats

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median is the middle value of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartiles of xs, computed exactly
// as Python's statistics.quantiles(xs, n=4) does (exclusive method, which
// extrapolates for very small samples). With fewer than two samples both
// are that sample (or 0).
func Quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	n, m := len(s), len(s)+1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// Spread is the interquartile range of xs as a share of its median, the
// run-to-run noise measure the benchmark's bounds are judged against.
func Spread(xs []float64) float64 {
	m := Median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := Quartiles(xs)
	return (q3 - q1) / m
}

// Tail returns the highest whole percentile of xs that has at least ten
// samples above it, and the value there (nearest rank). ok is false when
// there are too few samples for any percentile at or above the median.
func Tail(xs []float64) (pct int, v float64, ok bool) {
	n := len(xs)
	pct = int(math.Floor(100 * (1 - 10/float64(n))))
	if n == 0 || pct < 50 {
		return 0, 0, false
	}
	s := sorted(xs)
	rank := int(math.Ceil(float64(pct) / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return pct, s[rank-1], true
}
