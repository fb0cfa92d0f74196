package metrics

import (
	"math/rand"
	"testing"
	"time"
)

// TestHistogramMergeDisjointRanges merges histograms whose value ranges do
// not overlap, in both directions, checking the summary fields survive: a
// merge must behave exactly as if every observation had been recorded into
// one histogram.
func TestHistogramMergeDisjointRanges(t *testing.T) {
	low := &Histogram{}
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		low.Record(d)
	}
	high := &Histogram{}
	for _, d := range []time.Duration{time.Second, 2 * time.Second} {
		high.Record(d)
	}

	// low <- high: min stays, max extends (h.buckets must grow).
	a := &Histogram{}
	a.Merge(low)
	a.Merge(high)
	if a.Count() != 5 {
		t.Fatalf("count after merge: %d", a.Count())
	}
	if a.Min() != time.Millisecond {
		t.Errorf("min after low<-high: %v", a.Min())
	}
	if a.Max() != 2*time.Second {
		t.Errorf("max after low<-high: %v", a.Max())
	}

	// high <- low: min must move down, max stays.
	b := &Histogram{}
	b.Merge(high)
	b.Merge(low)
	if b.Min() != time.Millisecond || b.Max() != 2*time.Second {
		t.Errorf("min/max after high<-low: %v/%v", b.Min(), b.Max())
	}
	if a.Mean() != b.Mean() {
		t.Errorf("merge order changed the mean: %v vs %v", a.Mean(), b.Mean())
	}
	// Low quantiles come from the low range, high from the high range.
	if q := b.Quantile(0.2); q > 10*time.Millisecond {
		t.Errorf("q=0.2 of merged disjoint ranges: %v, want in the low range", q)
	}
	if q := b.Quantile(0.95); q < 500*time.Millisecond {
		t.Errorf("q=0.95 of merged disjoint ranges: %v, want in the high range", q)
	}

	// Merging an empty histogram is a no-op in both directions — in
	// particular it must not drag min down to zero.
	before := b.Min()
	b.Merge(&Histogram{})
	if b.Min() != before || b.Count() != 5 {
		t.Errorf("merging empty changed state: min %v count %d", b.Min(), b.Count())
	}
	empty := &Histogram{}
	empty.Merge(low)
	if empty.Min() != time.Millisecond || empty.Count() != 3 {
		t.Errorf("merge into empty: min %v count %d", empty.Min(), empty.Count())
	}
}

// TestHistogramQuantileEdges pins the boundary contract: q<=0 returns the
// exact recorded minimum and q>=1 the exact maximum (no bucket midpoint
// rounding at the edges), with out-of-range q clamped rather than
// extrapolated.
func TestHistogramQuantileEdges(t *testing.T) {
	h := &Histogram{}
	min := 1537 * time.Microsecond // deliberately off any bucket midpoint
	max := 977 * time.Millisecond
	h.Record(min)
	for i := 0; i < 100; i++ {
		h.Record(10 * time.Millisecond)
	}
	h.Record(max)

	if got := h.Quantile(0); got != min {
		t.Errorf("q=0: %v, want exact min %v", got, min)
	}
	if got := h.Quantile(1); got != max {
		t.Errorf("q=1: %v, want exact max %v", got, max)
	}
	if got := h.Quantile(-0.5); got != min {
		t.Errorf("q<0 must clamp to min: %v", got)
	}
	if got := h.Quantile(2); got != max {
		t.Errorf("q>1 must clamp to max: %v", got)
	}
	// Interior quantiles stay bracketed by the true extremes even when the
	// bucket midpoint falls outside [min, max].
	for _, q := range []float64{0.001, 0.01, 0.5, 0.99, 0.999} {
		if v := h.Quantile(q); v < min || v > max {
			t.Errorf("q=%v: %v outside [min=%v, max=%v]", q, v, min, max)
		}
	}
}

// TestHistogramQuantileSingleValue: every quantile of a one-observation
// histogram is that observation.
func TestHistogramQuantileSingleValue(t *testing.T) {
	h := &Histogram{}
	v := 42 * time.Millisecond
	h.Record(v)
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != v {
			t.Errorf("q=%v of single value: %v, want %v", q, got, v)
		}
	}
}

// TestHistogramQuantileRankConvention documents the rank rule at exact
// bucket boundaries: rank = floor(q*n), return the first bucket whose
// cumulative count exceeds it. With two distinct values, q=0.5 of n=2
// therefore lands on the upper one — the conservative (pessimistic) choice
// for latency reporting.
func TestHistogramQuantileRankConvention(t *testing.T) {
	h := &Histogram{}
	h.Record(10 * time.Millisecond)
	h.Record(100 * time.Millisecond)
	q := h.Quantile(0.5)
	if q < 50*time.Millisecond {
		t.Errorf("q=0.5 of {10ms, 100ms} = %v, want the upper value per the rank convention", q)
	}
	if q > 100*time.Millisecond {
		t.Errorf("q=0.5 exceeded the max: %v", q)
	}
}

// TestHistogramReset covers the tumbling-window reuse path telemetry
// depends on: a reset histogram is indistinguishable from a fresh one and
// records cleanly again.
func TestHistogramReset(t *testing.T) {
	h := &Histogram{}
	h.Record(5 * time.Millisecond)
	h.Record(50 * time.Millisecond)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("reset left state: count=%d mean=%v min=%v max=%v", h.Count(), h.Mean(), h.Min(), h.Max())
	}
	if got := h.Quantile(0.99); got != 0 {
		t.Errorf("quantile after reset: %v", got)
	}
	if got := h.FractionAbove(0); got != 0 {
		t.Errorf("FractionAbove after reset: %v", got)
	}
	h.Record(7 * time.Millisecond)
	if h.Count() != 1 || h.Min() != 7*time.Millisecond || h.Max() != 7*time.Millisecond {
		t.Errorf("record after reset: count=%d min=%v max=%v", h.Count(), h.Min(), h.Max())
	}
}

// TestHistogramResetClearsEveryBucket drives tumbling windows of random
// spread, some built by Merge, through Reset: every bucket must be zero
// afterwards, and each window's quantiles must match a fresh histogram's.
func TestHistogramResetClearsEveryBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var win Histogram
	for round := 0; round < 200; round++ {
		var fresh, part Histogram
		lo := time.Duration(rng.Int63n(int64(time.Second)))
		for n := rng.Intn(40); n > 0; n-- {
			d := lo + time.Duration(rng.Int63n(int64(time.Second)))
			if rng.Intn(10) == 0 {
				d = time.Duration(rng.Int63n(int64(time.Microsecond)))
			}
			fresh.Record(d)
			if rng.Intn(3) == 0 {
				part.Record(d)
			} else {
				win.Record(d)
			}
		}
		win.Merge(&part)
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99} {
			if got, want := win.Quantile(q), fresh.Quantile(q); got != want {
				t.Fatalf("round %d: q%.2f = %v, fresh histogram says %v", round, q, got, want)
			}
		}
		win.Reset()
		for i, c := range win.buckets {
			if c != 0 {
				t.Fatalf("round %d: bucket %d holds %d after Reset", round, i, c)
			}
		}
	}
}
