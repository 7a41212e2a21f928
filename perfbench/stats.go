package main

import "sort"

// tailBeyond is how many samples must lie above the value reported as
// a tail: the tail of a latency class is the highest percentile that
// still has this many samples beyond it, so it never rests on a
// handful of outliers.
const tailBeyond = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no samples. xs is not modified.
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

// tail returns the highest sample of xs with at least tailBeyond
// samples above it and the percentile it stands at (the share of
// samples at or below it). ok is false when xs has too few samples for
// such a rank to lie at or above the median: a "tail" below the median
// would be no tail at all.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n < 2*tailBeyond+1 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	i := n - tailBeyond - 1
	return s[i], 100 * float64(i+1) / float64(n), true
}

// windowTail applies the tail rule within consecutive windows of w
// samples and returns the median of the window tails, the percentile
// each stands at, and how many windows there were. A window of fixed
// size puts the tail at a fixed percentile whatever the run's sample
// count, and the median over windows keeps one stall from moving it.
// With fewer than w samples it applies the rule to all of them.
func windowTail(xs []float64, w int) (v, pct float64, windows int, ok bool) {
	if len(xs) < w {
		v, pct, ok = tail(xs)
		return v, pct, 1, ok
	}
	var tails []float64
	for i := 0; i+w <= len(xs); i += w {
		t, p, ok := tail(xs[i : i+w])
		if !ok {
			return 0, 0, 0, false
		}
		tails, pct = append(tails, t), p
	}
	return median(tails), pct, len(tails), true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
