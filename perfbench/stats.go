package main

import (
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond the tail percentile.
const tailBeyond = 10

// minTailSamples is the sample count below which the tail is no tail and the
// median is reported in its place.
const minTailSamples = 40

// median returns the median of xs (0 for none). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tail returns the value at the highest percentile that still has
// tailBeyond samples above it — the (n-tailBeyond)/n quantile, the sample
// of rank n-tailBeyond counted from 1 — and that percentile. With fewer than
// minTailSamples samples it returns the median and 50. xs is sorted in
// place.
func tail(xs []float64) (value, percentile float64) {
	n := len(xs)
	if n < minTailSamples {
		return median(xs), 50
	}
	sort.Float64s(xs)
	return xs[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n)
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
