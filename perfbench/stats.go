package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a p99 needs at least 1,000 samples, a p90 100 and a p50 20.
const minBeyond = 10

// errTooFewSamples reports a percentile the sample cannot support.
var errTooFewSamples = errors.New("too few samples beyond the percentile")

// percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule. It refuses when fewer than minBeyond samples would lie
// beyond the rank, so a tail figure is never read off a handful of points.
func percentile(samples []time.Duration, q float64) (time.Duration, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0,1)", q)
	}
	n := len(samples)
	// The epsilon keeps q*n exact where it is an integer (0.9*100 is
	// 90.00000000000001 in floating point).
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if n-rank < minBeyond || rank < 1 {
		return 0, fmt.Errorf("p%g of %d samples: %w (need %d)", q*100, n, errTooFewSamples, minBeyond)
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); zero for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of durations in microseconds; zero for
// an empty slice.
func meanUS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return us(sum) / float64(len(ds))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns num/den, or zero when den is zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
