package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"hybriddem/internal/core"
)

// simRun is one core.Run timed from outside.
type simRun struct {
	IterMs float64   // steady window over the iterations inside it
	StepMs []float64 // the window step by step: stamp i+1 minus stamp i
	SetupS float64   // wall(core.Run) minus the window scaled to all iterations
	Res    *core.Result
	Err    error

	// AllocsPerStep is MemStats.Mallocs over the steady window per
	// iteration; -1 unless the run was asked to count.
	AllocsPerStep float64
}

// timeRun runs cfg for iters measured iterations and times it with the
// host clock. core.Result.Wall is not used: the shared driver times
// only its measured loop while the distributed driver's stopwatch also
// covers placement, the first link build, warm-up and teardown, so the
// two are not comparable. Config.OnStep is free in every mode (rank 0,
// energies already reduced), so a preallocated slice of stamps gives
// the same steady window — first stamp to last stamp — for all six
// configurations, and what is left of the call's wall time is set-up.
func timeRun(cfg core.Config, iters int, stamps []time.Duration, countAllocs bool) simRun {
	stamps = stamps[:0]
	var m0, m1 runtime.MemStats
	runtime.GC() // the previous configuration's stores are garbage by now; collect them outside the timed call
	t0 := time.Now()
	cfg.OnStep = func(i int, _, _ float64) {
		stamps = append(stamps, time.Since(t0))
		if countAllocs {
			switch i {
			case 0:
				runtime.ReadMemStats(&m0)
			case iters - 1:
				runtime.ReadMemStats(&m1)
			}
		}
	}
	res, err := core.Run(cfg, iters)
	wall := time.Since(t0)

	r := simRun{Res: res, Err: err, AllocsPerStep: -1}
	if err == nil && (res.Iters != iters || len(stamps) != iters) {
		r.Err = fmt.Errorf("finished %d of %d iterations (%d step callbacks)", res.Iters, iters, len(stamps))
	}
	if r.Err != nil {
		return r
	}
	window, iterMs := steadyWindow(stamps)
	r.IterMs = iterMs
	r.StepMs = stepMs(stamps)
	r.SetupS = (wall - window*time.Duration(iters)/time.Duration(iters-1)).Seconds()
	if countAllocs {
		r.AllocsPerStep = float64(m1.Mallocs-m0.Mallocs) / float64(iters-1)
	}
	return r
}

// simStats is the outcome of the six-configuration rounds of one
// workload: every run in order, per configuration.
type simStats struct {
	tally
	Runs map[string][]simRun

	stamps []time.Duration // the OnStep hook's buffer, reused by every run
}

func (s *simStats) values(cfg string, f func(simRun) float64) []float64 {
	var xs []float64
	for _, r := range s.Runs[cfg] {
		if r.Err == nil {
			xs = append(xs, f(r))
		}
	}
	return xs
}

// iterMs is the reported wall time per iteration of one configuration:
// for every step of the steady window the fastest repetition of that
// step, summed, over the number of steps. Every repetition runs the
// same trajectory (same seed, one rebuild count — check enforces it),
// so step i does the same work each time, rebuild steps included, and
// whatever one repetition of it took longer than another is the host's
// doing, not the program's: on the sandbox this was sized on, a busy
// hyperthread sibling slows a step by half for a second at a time
// during roughly a third of a run, and the hypervisor takes the CPU
// away for 90-140 ms about once every two seconds. A median over three
// to five repetitions keeps a good part of that; the per-step minimum
// does not. The per-repetition window means are returned beside it and
// printed as min/max/n.
func (s *simStats) iterMs(cfg string) (best float64, perRep []float64) {
	var steps [][]float64
	for _, r := range s.Runs[cfg] {
		if r.Err == nil {
			perRep = append(perRep, r.IterMs)
			steps = append(steps, r.StepMs)
		}
	}
	return bestSteps(steps), perRep
}

// relEnergyTol is how far a configuration's final total energy may lie
// from the serial run's, relatively: the modes sum pair forces in
// different orders, so they agree to rounding, not to the bit.
const relEnergyTol = 1e-6

// benchSim runs the six configurations round-robin (c1 c2 … c6 c1 …)
// inside this process — interleaving spreads slow drifts of the host
// over all configurations instead of charging them to one — for at
// least w.MinReps rounds and then for as long as another round fits the
// budget. It then checks every run against the workload's contracts.
func benchSim(w *workload, seed int64, budget time.Duration, logf func(string, ...any)) *simStats {
	s := newSimStats(w)
	start := time.Now()
	var lastRound time.Duration
	for rep := 0; rep < w.MinReps || time.Since(start)+lastRound <= budget; rep++ {
		r0 := time.Now()
		s.round(w, seed, false)
		lastRound = time.Since(r0)
		logf("  round %d: %.2fs", rep+1, lastRound.Seconds())
	}
	s.check(w)
	return s
}

func newSimStats(w *workload) *simStats {
	return &simStats{Runs: make(map[string][]simRun), stamps: make([]time.Duration, 0, w.Iters)}
}

// round runs the six configurations once each.
func (s *simStats) round(w *workload, seed int64, countAllocs bool) {
	for _, rc := range configs {
		run := timeRun(w.Bed.config(rc, seed), w.Iters, s.stamps, countAllocs)
		s.Attempted++
		if run.Err != nil {
			s.fail("%s rep %d: %v", rc.Name, len(s.Runs[rc.Name]), run.Err)
		}
		s.Runs[rc.Name] = append(s.Runs[rc.Name], run)
	}
}

// check applies the correctness contracts: total energy within
// relEnergyTol of the serial run's, mpi and mpism equal to the bit
// (mpism only changes how halo data travels), the workload's rebuild
// assertions, and one rebuild count per configuration across
// repetitions (same seed, same trajectory).
func (s *simStats) check(w *workload) {
	var ref *core.Result
	for _, r := range s.Runs["serial"] {
		if r.Err == nil {
			ref = r.Res
			break
		}
	}
	for _, rc := range configs {
		rebuilds := -1
		for rep, r := range s.Runs[rc.Name] {
			if r.Err != nil {
				continue
			}
			res := r.Res
			if ref != nil {
				e, e0 := res.Epot+res.Ekin, ref.Epot+ref.Ekin
				if d := math.Abs(e - e0); d > relEnergyTol*math.Abs(e0) || math.IsNaN(e) {
					s.fail("%s rep %d: energy %.17g differs from serial %.17g", rc.Name, rep, e, e0)
					continue
				}
			}
			if rc.Name == "mpism" && rep < len(s.Runs["mpi"]) {
				if m := s.Runs["mpi"][rep]; m.Err == nil && (m.Res.Epot != res.Epot || m.Res.Ekin != res.Ekin) {
					s.fail("mpism rep %d: energies (%.17g, %.17g) are not bit-equal to mpi's (%.17g, %.17g)",
						rep, res.Epot, res.Ekin, m.Res.Epot, m.Res.Ekin)
					continue
				}
			}
			if w.RebuildsMin >= 0 && res.Rebuilds < w.RebuildsMin || w.RebuildsMax >= 0 && res.Rebuilds > w.RebuildsMax {
				s.fail("%s rep %d: %d rebuilds, want [%d, %d] (-1 = open)", rc.Name, rep, res.Rebuilds, w.RebuildsMin, w.RebuildsMax)
				continue
			}
			if rebuilds >= 0 && res.Rebuilds != rebuilds {
				s.fail("%s rep %d: %d rebuilds, earlier repetitions had %d", rc.Name, rep, res.Rebuilds, rebuilds)
				continue
			}
			rebuilds = res.Rebuilds
		}
	}
}
