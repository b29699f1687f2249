package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), or NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p percent of the samples at or
// below it. Nearest rank never invents a value between two samples,
// which matters for latency tails made of a handful of outliers.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// minMax returns the extremes of xs (NaNs for an empty sample).
func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

// quartiles returns the first and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method),
// so the spreads printed here are the ones the acceptance driver
// computes. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spread is the inter-quartile distance of xs as a share of its median:
// the run-to-run noise figure every bound in BENCHMARK.json is compared
// against. Fewer than two samples have no spread (0).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// steadyWindow turns the per-iteration timestamps an OnStep hook
// recorded into the steady-state figures: the window from the first
// stamp to the last, and the wall time per iteration inside it. The
// first measured iteration is deliberately outside the window — its
// start is not observable from the hook — so n stamps time n-1
// iterations. Fewer than two stamps give a zero window.
func steadyWindow(stamps []time.Duration) (window time.Duration, iterMs float64) {
	if len(stamps) < 2 {
		return 0, 0
	}
	window = stamps[len(stamps)-1] - stamps[0]
	return window, ms(window) / float64(len(stamps)-1)
}

// stepMs turns the same stamps into the window step by step: stamp i+1
// minus stamp i.
func stepMs(stamps []time.Duration) []float64 {
	if len(stamps) < 2 {
		return nil
	}
	steps := make([]float64, len(stamps)-1)
	for i := range steps {
		steps[i] = ms(stamps[i+1] - stamps[i])
	}
	return steps
}

// bestSteps is the robust wall time per step of a run repeated several
// times: for every step the fastest repetition of that step, averaged
// over the steps. NaN without repetitions.
func bestSteps(reps [][]float64) float64 {
	if len(reps) == 0 || len(reps[0]) == 0 {
		return math.NaN()
	}
	best := append([]float64(nil), reps[0]...)
	for _, r := range reps[1:] {
		for i := range best {
			best[i] = math.Min(best[i], r[i])
		}
	}
	sum := 0.0
	for _, x := range best {
		sum += x
	}
	return sum / float64(len(best))
}

// tally counts operations against failures and keeps the first few
// failure messages: what every part of a run reports back, and what the
// JSON line's attempted/failed are added up from.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
}

func (t *tally) fail(format string, args ...any) {
	t.Failed++
	if len(t.Errors) < 20 {
		t.Errors = append(t.Errors, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Errors = append(t.Errors, o.Errors...)
}

// sample summarises repeated measurements of one metric: the median is
// the reported value, the rest is printed beside it so a reader can
// judge the spread without rerunning.
type sample struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

func summarise(unit string, xs []float64) sample {
	lo, hi := minMax(xs)
	return sample{Value: median(xs), Unit: unit, Min: lo, Max: hi, N: len(xs), Samples: xs}
}

// estimate reports a value computed across repetitions (not their
// median) beside the per-repetition figures it was computed from.
func estimate(unit string, value float64, xs []float64) sample {
	s := summarise(unit, xs)
	s.Value = value
	return s
}

// single wraps one measured value as a sample of one.
func single(unit string, x float64) sample {
	return sample{Value: x, Unit: unit, Min: x, Max: x, N: 1}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
