package main

import "testing"

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		// Reverse order, so summarize has to sort.
		xs[i] = float64(n - i)
	}
	return xs
}

func TestSummarizeTenBeyondRule(t *testing.T) {
	for _, tc := range []struct {
		n        int
		p99OK    bool
		beyond99 int
	}{
		{n: 0, p99OK: false, beyond99: 0},
		{n: 15, p99OK: false, beyond99: 0},
		{n: 100, p99OK: false, beyond99: 1},
		{n: 999, p99OK: false, beyond99: 9},
		{n: 1000, p99OK: true, beyond99: 10},
		{n: 10000, p99OK: true, beyond99: 100},
	} {
		s := summarize(ramp(tc.n))
		if s.N != tc.n || s.Beyond99 != tc.beyond99 || s.p99OK() != tc.p99OK {
			t.Errorf("n=%d: got N=%d beyond99=%d p99OK=%v, want beyond99=%d p99OK=%v",
				tc.n, s.N, s.Beyond99, s.p99OK(), tc.beyond99, tc.p99OK)
		}
	}
}

func TestSummarizeNearestRank(t *testing.T) {
	s := summarize(ramp(1000)) // values 1..1000
	if s.P50 != 500 || s.P99 != 990 {
		t.Fatalf("P50=%v P99=%v, want 500 and 990", s.P50, s.P99)
	}
	xs := []float64{3, 1, 2}
	if s := summarize(xs); s.P50 != 2 || s.P99 != 3 || xs[0] != 3 {
		t.Fatalf("small sample: P50=%v P99=%v (input reordered: %v)", s.P50, s.P99, xs)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
