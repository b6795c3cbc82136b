package main

import "testing"

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75},
		{100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {1 << 20, 99},
	} {
		got := tailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if beyond := tc.n - rank(tc.n, got); got > 50 && beyond < 10 {
			t.Errorf("tailPercentile(%d) = %v leaves only %d samples beyond", tc.n, got, beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{50, 50}, {75, 75}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
}

func TestMedianFloat(t *testing.T) {
	if got := medianFloat([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
}
