package main

import "sort"

// median returns the middle of xs (the mean of the two middle values for an
// even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantiles returns the n-1 cut points dividing xs into n groups, with the
// same "exclusive" interpolation as Python's statistics.quantiles, so a
// spread computed here matches one computed over the printed results.
func quantiles(xs []float64, n int) []float64 {
	if n < 2 || len(xs) == 0 {
		return nil
	}
	s := sortedCopy(xs)
	ld := len(s)
	out := make([]float64, 0, n-1)
	if ld == 1 {
		for i := 1; i < n; i++ {
			out = append(out, s[0])
		}
		return out
	}
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out = append(out, (s[j-1]*float64(n-delta)+s[j]*float64(delta))/float64(n))
	}
	return out
}

// spread is the interquartile range of xs as a share of its median: the
// figure the benchmark's bounds are set against.
func spread(xs []float64) float64 {
	q := quantiles(xs, 4)
	med := median(xs)
	if len(q) != 3 || med == 0 {
		return 0
	}
	return (q[2] - q[0]) / med
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
