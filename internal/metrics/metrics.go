// Package metrics provides latency histograms, per-session serving
// statistics, interval time series, and the max-goodput search used by every
// evaluation in the paper ("the maximum rate of queries such that 99% of
// them are served within their latency SLOs", §7).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"

	"nexus/internal/runner"
)

// Histogram is a logarithmically-bucketed latency histogram with ~2%
// relative precision from 1µs to ~30s. The zero value is ready to use.
type Histogram struct {
	buckets  []uint64
	count    uint64
	sum      time.Duration
	min, max time.Duration
}

const (
	histBase   = float64(time.Microsecond)
	histGrowth = 1.02
)

var histLogGrowth = math.Log(histGrowth)

func bucketIndex(d time.Duration) int {
	if d < time.Microsecond {
		return 0
	}
	return 1 + int(math.Log(float64(d)/histBase)/histLogGrowth)
}

func bucketValue(idx int) time.Duration {
	if idx == 0 {
		return time.Microsecond / 2
	}
	// Geometric midpoint of the bucket.
	lo := histBase * math.Pow(histGrowth, float64(idx-1))
	return time.Duration(lo * math.Sqrt(histGrowth))
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	idx := bucketIndex(d)
	if idx >= len(h.buckets) {
		nb := make([]uint64, idx+16)
		copy(nb, h.buckets)
		h.buckets = nb
	}
	h.buckets[idx]++
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Min returns the smallest recorded value (0 when empty).
func (h *Histogram) Min() time.Duration { return h.min }

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns the q-quantile (0 <= q <= 1) with ~2% relative error.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.count))
	var seen uint64
	// Buckets below min's are empty; start the scan there.
	for i := bucketIndex(h.min); i < len(h.buckets); i++ {
		seen += h.buckets[i]
		if seen > rank {
			v := bucketValue(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// FractionAbove returns the fraction of observations strictly greater
// than limit, up to bucket resolution.
func (h *Histogram) FractionAbove(limit time.Duration) float64 {
	if h.count == 0 {
		return 0
	}
	idx := bucketIndex(limit)
	var above uint64
	for i := idx + 1; i < len(h.buckets); i++ {
		above += h.buckets[i]
	}
	return float64(above) / float64(h.count)
}

// Reset clears all observations, keeping the bucket storage for reuse.
// This is what makes the histogram usable as a tumbling window: rotate by
// summarizing and resetting in place, no per-window allocation. Every
// observation lies between min and max, so only their bucket range is
// cleared: the cost follows the window's spread, not the storage.
func (h *Histogram) Reset() {
	if h.count > 0 {
		clear(h.buckets[bucketIndex(h.min) : bucketIndex(h.max)+1])
	}
	h.count, h.sum, h.min, h.max = 0, 0, 0, 0
}

// Merge adds all observations of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	if len(other.buckets) > len(h.buckets) {
		nb := make([]uint64, len(other.buckets))
		copy(nb, h.buckets)
		h.buckets = nb
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// SessionStats accumulates the serving outcome of one session. A request is
// "bad" if it was lost before producing a response or completed after its
// deadline (§4.3). Losses are counted by reason, so admission-control drops
// are distinguishable from failures.
type SessionStats struct {
	Sent      uint64
	Dropped   uint64 // shed by the drop policy (deadline-based admission control)
	Completed uint64
	Missed    uint64 // completed but after the deadline
	// Loss reasons beyond the drop policy.
	Unroutable uint64 // no route existed at the frontend
	Reconfig   uint64 // lost to a control-plane reconfiguration race
	Overload   uint64 // rejected by a bounded backend queue
	Failed     uint64 // lost to a backend failure (queued or in flight)
	Admission  uint64 // shed by frontend token-bucket admission control
	Latency    Histogram
}

// Good returns the number of requests served within their deadline.
func (s *SessionStats) Good() uint64 { return s.Completed - s.Missed }

// Lost returns every request lost before producing a response, across all
// reasons.
func (s *SessionStats) Lost() uint64 {
	return s.Dropped + s.Unroutable + s.Reconfig + s.Overload + s.Failed + s.Admission
}

// Bad returns the number of requests that count against SLO attainment:
// lost for any reason, or completed late.
func (s *SessionStats) Bad() uint64 { return s.Lost() + s.Missed }

// BadRate returns the fraction of sent requests that were lost or late.
// Requests still in flight count as neither.
func (s *SessionStats) BadRate() float64 {
	if s.Sent == 0 {
		return 0
	}
	return float64(s.Bad()) / float64(s.Sent)
}

// GoodRate is 1 - BadRate measured over finished requests only.
func (s *SessionStats) GoodRate() float64 { return 1 - s.BadRate() }

// Merge accumulates other into s.
func (s *SessionStats) Merge(other *SessionStats) {
	s.Sent += other.Sent
	s.Dropped += other.Dropped
	s.Completed += other.Completed
	s.Missed += other.Missed
	s.Unroutable += other.Unroutable
	s.Reconfig += other.Reconfig
	s.Overload += other.Overload
	s.Failed += other.Failed
	s.Admission += other.Admission
	s.Latency.Merge(&other.Latency)
}

// Recorder aggregates SessionStats by session ID.
type Recorder struct {
	sessions map[string]*SessionStats
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{sessions: make(map[string]*SessionStats)}
}

// Session returns (creating if needed) the stats for a session ID.
func (r *Recorder) Session(id string) *SessionStats {
	s, ok := r.sessions[id]
	if !ok {
		s = &SessionStats{}
		r.sessions[id] = s
	}
	return s
}

// NumSessions returns how many session IDs the recorder knows. Sessions
// are never removed, so a change in the count means new IDs.
func (r *Recorder) NumSessions() int { return len(r.sessions) }

// SessionIDs returns the known session IDs in sorted order.
func (r *Recorder) SessionIDs() []string {
	ids := make([]string, 0, len(r.sessions))
	for id := range r.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Total returns stats merged across all sessions.
func (r *Recorder) Total() *SessionStats {
	t := &SessionStats{}
	for _, s := range r.sessions {
		t.Merge(s)
	}
	return t
}

// TimeSeries buckets scalar samples into fixed intervals of virtual time,
// used for the Figure 13 style load / usage / bad-rate panels.
type TimeSeries struct {
	Interval time.Duration
	sums     []float64
	counts   []uint64
}

// NewTimeSeries returns a series with the given bucket interval.
// It panics if interval is not positive.
func NewTimeSeries(interval time.Duration) *TimeSeries {
	if interval <= 0 {
		panic("metrics: time series interval must be positive")
	}
	return &TimeSeries{Interval: interval}
}

// Add records value at virtual time t.
func (ts *TimeSeries) Add(t time.Duration, value float64) {
	idx := int(t / ts.Interval)
	for idx >= len(ts.sums) {
		ts.sums = append(ts.sums, 0)
		ts.counts = append(ts.counts, 0)
	}
	ts.sums[idx] += value
	ts.counts[idx]++
}

// Len returns the number of buckets touched so far.
func (ts *TimeSeries) Len() int { return len(ts.sums) }

// Sum returns the total of values in bucket i.
func (ts *TimeSeries) Sum(i int) float64 {
	if i < 0 || i >= len(ts.sums) {
		return 0
	}
	return ts.sums[i]
}

// Mean returns the mean value in bucket i (0 when empty).
func (ts *TimeSeries) Mean(i int) float64 {
	if i < 0 || i >= len(ts.sums) || ts.counts[i] == 0 {
		return 0
	}
	return ts.sums[i] / float64(ts.counts[i])
}

// Rate returns bucket i's sum divided by the interval in seconds — i.e. a
// per-second rate when Add records unit counts.
func (ts *TimeSeries) Rate(i int) float64 {
	return ts.Sum(i) / ts.Interval.Seconds()
}

// RecoveryTime measures how long a disturbed deployment took to regain
// frac (e.g. 0.95) of its pre-fault goodput. good is a per-interval
// goodput timeline, faultAt the injection time, and preWindow how much
// history before the fault defines the baseline rate (at least one
// bucket). It returns the duration from faultAt to the end of the first
// post-fault bucket whose rate reaches frac times the baseline, and false
// if the timeline never recovers.
func RecoveryTime(good *TimeSeries, faultAt, preWindow time.Duration, frac float64) (time.Duration, bool) {
	if good == nil || good.Interval <= 0 {
		return 0, false
	}
	fb := int(faultAt / good.Interval)
	w := int(preWindow / good.Interval)
	if w < 1 {
		w = 1
	}
	lo := fb - w
	if lo < 0 {
		lo = 0
	}
	if fb <= lo {
		return 0, false
	}
	var pre float64
	for i := lo; i < fb; i++ {
		pre += good.Rate(i)
	}
	pre /= float64(fb - lo)
	if pre <= 0 {
		return 0, true // nothing to recover
	}
	for i := fb + 1; i < good.Len(); i++ {
		if good.Rate(i) >= frac*pre {
			return time.Duration(i+1)*good.Interval - faultAt, true
		}
	}
	return 0, false
}

// Attainment returns the per-bucket SLO attainment timeline
// good/(good+bad), with 1 for buckets that saw no completions. The two
// series must share an interval; the result spans the longer one.
func Attainment(good, bad *TimeSeries) []float64 {
	n := good.Len()
	if bad.Len() > n {
		n = bad.Len()
	}
	out := make([]float64, n)
	for i := range out {
		g, b := good.Sum(i), bad.Sum(i)
		if g+b == 0 {
			out[i] = 1
			continue
		}
		out[i] = g / (g + b)
	}
	return out
}

// GoodputTarget is the goodness criterion used throughout the paper's
// evaluation: at least 99% of requests within the latency SLO.
const GoodputTarget = 0.99

// MaxGoodput finds the maximum request rate (req/s) at which eval reports a
// bad rate of at most 1-target. eval must be monotone in rate to within
// noise; the search brackets by doubling from lo and then bisects until the
// bracket is within tol (relative). It returns 0 if even lo fails.
func MaxGoodput(lo, hi float64, target float64, tol float64, eval func(rate float64) (badRate float64)) float64 {
	if lo <= 0 {
		lo = 1
	}
	if tol <= 0 {
		tol = 0.02
	}
	maxBad := 1 - target
	if eval(lo) > maxBad {
		return 0
	}
	good := lo
	bad := hi
	if eval(hi) <= maxBad {
		return hi
	}
	for bad-good > tol*bad {
		mid := (good + bad) / 2
		if eval(mid) <= maxBad {
			good = mid
		} else {
			bad = mid
		}
	}
	return good
}

// MaxGoodputK is the speculative variant of MaxGoodput: each round it
// evaluates k evenly spaced candidate rates inside the bracket
// concurrently (bounded by the runner pool), then uses eval's monotonicity
// to collapse the bracket onto the interval between the highest passing
// and lowest failing probe — a shrink factor of 1/(k+1) per round instead
// of binary search's 1/2.
//
// The probe rates depend only on (lo, hi, k), never on worker count or
// completion order, so the result is identical whether the probes run on
// one goroutine or many. eval must be safe for concurrent invocation: each
// call must build its own isolated simulation (its own clock, rng, and
// deployment), which every builder in internal/experiments does.
//
// k <= 1 degenerates to the sequential bisection of MaxGoodput.
func MaxGoodputK(lo, hi float64, target float64, tol float64, k int, eval func(rate float64) (badRate float64)) float64 {
	if k <= 1 {
		return MaxGoodput(lo, hi, target, tol, eval)
	}
	if lo <= 0 {
		lo = 1
	}
	if tol <= 0 {
		tol = 0.02
	}
	maxBad := 1 - target
	// Probe the endpoints together: one concurrent round instead of two
	// sequential full simulations.
	ends := runner.Map(2, func(i int) float64 {
		if i == 0 {
			return eval(lo)
		}
		return eval(hi)
	})
	if ends[0] > maxBad {
		return 0
	}
	if ends[1] <= maxBad {
		return hi
	}
	good, bad := lo, hi
	for bad-good > tol*bad {
		width := bad - good
		rates := make([]float64, k)
		for i := range rates {
			rates[i] = good + width*float64(i+1)/float64(k+1)
		}
		results := runner.Map(k, func(i int) float64 { return eval(rates[i]) })
		// Monotone collapse: the highest passing probe raises good, the
		// lowest failing probe lowers bad. Probes between them would be
		// contradictory under strict monotonicity; trusting the
		// highest-pass/lowest-fail pair keeps the bracket valid even when
		// simulation noise perturbs a middle probe.
		newGood, newBad := good, bad
		for i := k - 1; i >= 0; i-- {
			if results[i] <= maxBad {
				newGood = rates[i]
				break
			}
		}
		for i := 0; i < k; i++ {
			if results[i] > maxBad {
				newBad = rates[i]
				break
			}
		}
		if newBad <= newGood {
			// Noise inverted the bracket; settle on the passing probe.
			return newGood
		}
		good, bad = newGood, newBad
	}
	return good
}

// FormatRate renders a request rate for table output.
func FormatRate(r float64) string {
	return fmt.Sprintf("%.1f", r)
}
