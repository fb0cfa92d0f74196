package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{-1, 5, 5, 0, 100}, 5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// TestQuantiles checks against Python's statistics.quantiles(xs, n=4),
// whose default "exclusive" method extrapolates for small samples.
func TestQuantiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want []float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, []float64{1, 2, 3}},
		{[]float64{0.5, 2.25, 1, 7, 3.5, 3.25, 10}, []float64{1, 3.25, 7}},
		{[]float64{4, 1}, []float64{0.25, 2.5, 4.75}},
		{[]float64{9}, []float64{9, 9, 9}},
	} {
		got := quantiles(c.xs, 4)
		if len(got) != len(c.want) {
			t.Fatalf("quantiles(%v) = %v, want %v", c.xs, got, c.want)
		}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quantiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if q := quantiles(nil, 4); q != nil {
		t.Errorf("quantiles(nil) = %v, want nil", q)
	}
}

func TestSpread(t *testing.T) {
	// IQR 8.25-2.75 = 5.5 over median 5.5.
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{7, 7, 7, 7}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
}
