package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail latency may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99}

// tailPercentile picks the highest percentile of the ladder that still has
// at least ten samples beyond it among n: a percentile resting on fewer is
// one or two outliers, not a distribution. With fewer than twenty samples
// it falls back to the median.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if beyond := n - rank(n, p); beyond >= 10 {
			best = p
		}
	}
	return best
}

// rank is the 1-based nearest-rank position of percentile p among n sorted
// samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted (ascending,
// non-empty).
func percentile(sorted []int64, p float64) int64 {
	return sorted[rank(len(sorted), p)-1]
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func meanFloat(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}

// ratio is a/b, or 0 when b is 0 (a counter that never moved).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
