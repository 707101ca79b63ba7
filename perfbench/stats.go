package main

import "sort"

// minBeyond is how many samples must lie beyond a tail percentile before
// it is reported: a p95 needs at least 200 samples.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample such that at least p% of the samples are at or
// below it. It never interpolates, so the result is always a measured
// value. xs must be non-empty; it is not modified.
func percentile(xs []float64, p int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples: ceil(p·n/100), computed in integers so that, for example, the
// p95 of 200 samples is exactly rank 190.
func rank(n, p int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// tailReportable reports whether the p-th percentile of n samples has at
// least minBeyond samples beyond its rank. A percentile that does not is
// withheld and the metric is reported as its median only.
func tailReportable(n, p int) bool {
	return n > 0 && n-rank(n, p) >= minBeyond
}

// median is the nearest-rank p50.
func median(xs []float64) float64 { return percentile(xs, 50) }
