package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a tail read from fewer points is noise.
const minBeyond = 10

// summary condenses a sample of timings.
type summary struct {
	// N is the sample count.
	N int
	// P50 and P99 are nearest-rank percentiles; Beyond99 counts the
	// samples ranked beyond P99.
	P50, P99 float64
	Beyond99 int
}

// p99OK reports whether P99 has at least minBeyond samples beyond it.
func (s summary) p99OK() bool { return s.Beyond99 >= minBeyond }

// summarize sorts a copy of xs and reads its percentiles.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50, _ = quantile(sorted, 0.5)
	s.P99, s.Beyond99 = quantile(sorted, 0.99)
	return s
}

// quantile returns the nearest-rank q-quantile of a sorted sample and
// the number of samples ranked beyond it.
func quantile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	m := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[m]
	}
	return (sorted[m-1] + sorted[m]) / 2
}
