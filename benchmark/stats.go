package main

import "sort"

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tail is the highest percentile of xs that still has at least ten
// samples beyond it, and its value. With too few samples for any
// percentile above the median it falls back to the median.
func tail(xs []float64) (value, pct float64) {
	k := len(xs) - 10 // samples at or below the reported one
	if 2*k <= len(xs) {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k-1], 100 * float64(k) / float64(len(s))
}

// ratio is a/b, and 0 when b is 0: a layer that did no work reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
