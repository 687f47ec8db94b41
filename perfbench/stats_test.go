package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of an empty sample must be NaN")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ pct, want float64 }{{50, 50}, {99, 99}, {99.9, 100}, {0, 1}, {100, 100}} {
		if got := percentile(s, c.pct); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.pct, got, c.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false},    // not even the median has ten beyond it
		{20, 50, true},   // 10 beyond p50
		{99, 50, true},   // p90 leaves 9
		{100, 90, true},  // p90 leaves exactly 10
		{999, 90, true},  // p99 leaves 9
		{1000, 99, true}, // p99 leaves 10
		{9999, 99, true}, // p99.9 leaves 9
		{10000, 99.9, true},
		{1000000, 99.99, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestFailFracCounting(t *testing.T) {
	var tl tally
	if tl.failFrac() != 0 {
		t.Fatal("empty tally must read 0")
	}
	tl.op(true)   // a CLI phase that exited 0
	tl.op(false)  // an output-check mismatch
	tl.add(97, 1) // a load phase: 97 requests, one refused
	tl.add(0, 0)  // an empty phase changes nothing
	if tl.attempted != 99 || tl.failed != 2 {
		t.Fatalf("tally = %+v, want 99 attempted, 2 failed", tl)
	}
	if got := tl.failFrac(); !near(got, 2.0/99) {
		t.Errorf("failFrac = %v, want %v", got, 2.0/99)
	}
}
