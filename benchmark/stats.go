package main

import (
	"sort"
	"time"

	"statefulentities.dev/stateflow/internal/obs"
)

// percentile returns the nearest-rank p-quantile (p in 0..1) of xs, sorting
// it in place; 0 for an empty sample.
func percentile(xs []time.Duration, p float64) time.Duration {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return obs.PercentileOf(xs, 100*p)
}

// iqMean is the interquartile mean: the mean of the middle half of the
// sample. Host timings on a shared box have a one-sided tail (a slice
// that met a neighbour's burst or an extra GC cycle); dropping both
// quarters removes it without keeping only one observation as a median
// would.
func iqMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	sum := 0.0
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

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

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
