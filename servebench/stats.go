package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// tailSamples is the number of samples a reported percentile needs
// beyond it: p99 needs at least 1000 samples, p95 at least 200.
const tailSamples = 10

// percentile returns the nearest-rank q-quantile of samples in
// milliseconds. It refuses when fewer than tailSamples samples lie
// above the reported rank, because such a tail is a handful of
// outliers, not a percentile.
func percentile(samples []time.Duration, q float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if n == 0 || n-rank < tailSamples {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples", q*100, tailSamples, n)
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	return float64(sorted[max(rank, 1)-1]) / 1e6, nil
}

// median returns the middle value of xs (mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
