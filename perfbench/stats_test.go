package main

import (
	"math"
	"testing"
)

func TestTailNeedsTenBeyond(t *testing.T) {
	var xs []float64
	for i := 0; i < 2*tailBeyond; i++ {
		xs = append(xs, float64(i))
		if _, _, ok := tail(xs); ok {
			t.Fatalf("tail of %d samples reported a value below the median", len(xs))
		}
	}
	xs = append(xs, 99)
	v, pct, ok := tail(xs)
	if !ok || v != 10 || math.Abs(pct-100.0*11/21) > 1e-9 {
		t.Fatalf("tail of 21 samples = %v at p%v (ok %v), want the median 10 at p%.3f", v, pct, ok, 100.0*11/21)
	}
}

func TestTailRankOfHundred(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input: 100..1
	}
	v, pct, ok := tail(xs)
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v, want 90 at p90 (91..100 beyond)", v, pct)
	}
	if xs[0] != 100 {
		t.Fatal("tail sorted its input in place")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestServeLatencyIsOneClass checks that serve's latency metrics come
// from the cold requests alone, never from a mix with the cache hits.
func TestServeLatencyIsOneClass(t *testing.T) {
	ph := &phase{rounds: []float64{1, 1}, work: 10, attempted: 60}
	for i := 0; i < 30; i++ {
		ph.cold = append(ph.cold, 100+float64(i))
		ph.warm = append(ph.warm, 0.1)
	}
	res := endToEnd("serve", []float64{0.01}, ph, map[string]float64{})
	if got := res.Metrics["p50_ms"].Value; got != 114.5 {
		t.Errorf("p50_ms = %v, want the cold median 114.5", got)
	}
	if got := res.Metrics["tail_ms"].Value; got != 119 {
		t.Errorf("tail_ms = %v, want 119 (the cold sample with ten beyond)", got)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 60 {
		t.Errorf("accounting = correct %v, %d failed of %d", res.Correct, res.Failed, res.Attempted)
	}
}

// TestBatchLatencyIsRounds checks that a batch workload reports the
// round, the operation its user waits for, and that a failure shows.
func TestBatchLatencyIsRounds(t *testing.T) {
	ph := &phase{rounds: []float64{2, 3, 4}, work: 90, attempted: 24}
	ph.fail("cell %d: wrong result", 1)
	res := endToEnd("commercial", []float64{0.01}, ph, map[string]float64{})
	if got := res.Metrics["p50_ms"].Value; got != 3000 {
		t.Errorf("p50_ms = %v, want the median round 3000", got)
	}
	if got := res.Metrics["tail_ms"].Value; got != 3000 {
		t.Errorf("tail_ms = %v, want the median 3000: three rounds have no tail with ten beyond", got)
	}
	if got := res.Metrics["throughput"].Value; got != 10 {
		t.Errorf("throughput = %v, want 30 events per round / 3 s", got)
	}
	if res.Correct || res.Failed != 1 {
		t.Errorf("a failed operation left correct=%v failed=%d", res.Correct, res.Failed)
	}
}

func TestWindowTail(t *testing.T) {
	var xs []float64
	for w := 0; w < 3; w++ {
		for i := 1; i <= 30; i++ {
			xs = append(xs, float64(100*w+i))
		}
	}
	xs = append(xs, 1e9) // a partial window is left out
	v, pct, windows, ok := windowTail(xs, 30)
	if !ok || v != 120 || math.Abs(pct-200.0/3) > 1e-9 || windows != 3 {
		t.Fatalf("windowTail = %v at p%v over %d windows (ok %v), want the median window tail 120 at p66.7 over 3", v, pct, windows, ok)
	}
	v, _, windows, ok = windowTail(xs[:25], 30)
	if !ok || v != 15 || windows != 1 {
		t.Fatalf("windowTail of a short run = %v over %d windows, want the plain rule's 15", v, windows)
	}
	if _, _, _, ok := windowTail(xs, 5); ok {
		t.Fatal("windowTail accepted windows too small for a tail")
	}
}
