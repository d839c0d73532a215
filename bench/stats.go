package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs:
// the smallest sample with at least p% of the samples at or below it. It
// returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n samples.
// The tolerance keeps a rank that is whole in decimal, such as 99.9% of
// 10000, from rounding up through binary representation error.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// tailCandidates are the tail percentiles a timing may report, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the percentile a timing's tail is reported at: the
// highest candidate that leaves at least ten samples beyond its rank, so the
// tail rests on more than a handful of outliers. With fewer than 20 samples
// no percentile above the median qualifies, and it returns 50.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n-nearestRank(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// tail is xs at its tail percentile; when that is the median it is the
// median proper, so a tail never reads below the median it falls back to.
func tail(xs []float64) float64 {
	p := tailPercentile(len(xs))
	if p == 50 {
		return median(xs)
	}
	return percentile(xs, p)
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method Python's statistics.quantiles(xs, n=4) uses by default
// ("exclusive"), so spreads computed here match that reference.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
