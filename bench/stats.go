package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the fewest samples that must lie beyond a reported
// percentile; with fewer, the percentile is one or two outliers, not a
// property of the distribution.
const minBeyond = 10

// sortDurations returns a sorted copy of xs.
func sortDurations(xs []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// median returns the middle sample of a sorted slice (mean of the two
// middle samples when the count is even). It needs one sample.
func median(sorted []time.Duration) (time.Duration, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("median of no samples")
	}
	if n%2 == 1 {
		return sorted[n/2], nil
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2, nil
}

// percentile returns the nearest-rank p-quantile (0.5 < p < 1) of a sorted
// slice, and refuses when fewer than minBeyond samples lie beyond it.
func percentile(sorted []time.Duration, p float64) (time.Duration, error) {
	n := len(sorted)
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 || rank > n {
		return 0, fmt.Errorf("percentile %g of %d samples", p, n)
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("percentile %g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return sorted[rank-1], nil
}

// medianOf sorts xs and returns its median in the given unit.
func medianOf(xs []time.Duration, unit time.Duration) (float64, error) {
	m, err := median(sortDurations(xs))
	return float64(m) / float64(unit), err
}

// medianFloat returns the median of xs; 0 for none.
func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the run-to-run spread of xs as a share of their median: the
// distance between the first and third quartile (the exclusive method of
// Python's statistics.quantiles(n=4), which the acceptance run uses) for
// four or more values, the full range for two or three, 0 for one.
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	med := medianFloat(s)
	//lint:ignore epsflow exact zero test guards the division
	if n < 2 || med == 0 {
		return 0
	}
	if n < 4 {
		return math.Abs((s[n-1] - s[0]) / med)
	}
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(n+1) / 4
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return math.Abs((q(3) - q(1)) / med)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
