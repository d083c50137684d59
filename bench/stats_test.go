package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		samples []float64
		p       float64
		want    float64
		ok      bool
	}{
		{hundred, 50, 50, true},
		{hundred, 90, 90, true},  // ten samples beyond
		{hundred, 91, 91, false}, // nine beyond
		{hundred, 99, 99, false},
		{[]float64{1, 2, 3}, 50, 2, false},
		{nil, 50, 0, false},
	} {
		got, ok := percentile(tc.samples, tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("p%g of %d samples = %v, %v; want %v, %v", tc.p, len(tc.samples), got, ok, tc.want, tc.ok)
		}
	}
	thousand := make([]float64, 1000)
	for i := range thousand {
		thousand[i] = float64(i + 1)
	}
	if got, ok := percentile(thousand, 99); got != 990 || !ok {
		t.Errorf("p99 of 1000 samples = %v, %v; want 990, true", got, ok)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSlicedPercentileIgnoresOneSlowSlice(t *testing.T) {
	samples := make([]float64, 5000)
	for i := range samples {
		samples[i] = 1
		if i >= 2000 && i < 3000 {
			samples[i] = 100 // a stall covering one fifth of the window
		}
	}
	if got, ok := slicedPercentile(samples, 99); got != 1 || !ok {
		t.Errorf("sliced p99 = %v, %v; want 1, true", got, ok)
	}
	// Too few samples for two slices: the plain percentile, in any order.
	thirty := make([]float64, 30)
	for i := range thirty {
		thirty[i] = float64(30 - i)
	}
	if got, ok := slicedPercentile(thirty, 50); got != 15 || !ok {
		t.Errorf("sliced p50 of 30 samples = %v, %v; want 15, true", got, ok)
	}
	if _, ok := slicedPercentile([]float64{3, 1, 2}, 50); ok {
		t.Error("a p50 of three samples was reported as supported")
	}
}
