package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the caller's
// slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values
// for an even count). It is NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the value at percentile pct (0–100) of the sorted
// sample s by the nearest-rank rule: the smallest value with at least
// pct% of the sample at or below it.
func percentile(s []float64, pct float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	rank := nearestRank(pct, len(s))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// nearestRank is the 1-based position of percentile pct in a sorted
// sample of n, ⌈pct/100·n⌉, with a tolerance for the float error in
// pct/100 (99.9/100·10000 must give 9990, not 9991).
func nearestRank(pct float64, n int) int {
	return int(math.Ceil(pct/100*float64(n) - 1e-9))
}

// percentileLadder is the set of percentiles a tail is reported at.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile is the highest percentile of the ladder that still
// has at least ten samples beyond it in a sample of n — the highest
// tail a sample of that size can report without resting on a handful
// of outliers. ok is false when not even the median qualifies.
func tailPercentile(n int) (pct float64, ok bool) {
	for i := len(percentileLadder) - 1; i >= 0; i-- {
		p := percentileLadder[i]
		// Samples strictly beyond the nearest-rank position of p.
		beyond := n - nearestRank(p, n)
		if beyond >= 10 {
			return p, true
		}
	}
	return 0, false
}

// tally counts operations attempted and failed across a run: every
// child-process phase, every HTTP request, and every output check. A
// failed operation is never dropped from the denominator.
type tally struct {
	attempted int
	failed    int
}

// op records one operation and whether it succeeded.
func (t *tally) op(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// add folds n operations of which failed failed.
func (t *tally) add(n, failed int) {
	t.attempted += n
	t.failed += failed
}

// failFrac is the failed share of attempted operations (0 for none).
func (t *tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
