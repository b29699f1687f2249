package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{{5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing is not NaN")
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10.2, 9.9, 10.0, 10.4, 9.8, 10.1, 10.3, 10.0, 9.7, 10.6}, 9.875, 10.325},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one sample = %v", got)
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSteadyWindow(t *testing.T) {
	ms := time.Millisecond
	// Five stamps time four iterations: the iteration that ends at the
	// first stamp is outside the window.
	window, iterMs := steadyWindow([]time.Duration{10 * ms, 12 * ms, 14 * ms, 19 * ms, 22 * ms})
	if window != 12*ms || iterMs != 3 {
		t.Errorf("window %v, %v ms/iter; want 12ms, 3", window, iterMs)
	}
	if w, it := steadyWindow([]time.Duration{5 * ms}); w != 0 || it != 0 {
		t.Errorf("one stamp gave window %v, %v ms/iter", w, it)
	}
}

// The per-step minimum over repetitions keeps what every repetition
// paid for a step (a rebuild) and drops what only one paid (a stall).
func TestIterMsTakesFastestRepetitionOfEachStep(t *testing.T) {
	s := &simStats{Runs: map[string][]simRun{"serial": {
		{IterMs: 4, StepMs: []float64{1, 10, 1}},     // step 1 is a rebuild
		{IterMs: 35, StepMs: []float64{1, 11, 93}},   // stalled in step 2
		{IterMs: 4.4, StepMs: []float64{2, 10, 1.2}}, // slowed in step 0
	}}}
	best, perRep := s.iterMs("serial")
	if best != 4 || len(perRep) != 3 {
		t.Errorf("iterMs = %v over %v, want 4 over three repetitions", best, perRep)
	}
	if best, _ := s.iterMs("mpi"); !math.IsNaN(best) {
		t.Errorf("iterMs of a configuration without runs = %v", best)
	}
}
