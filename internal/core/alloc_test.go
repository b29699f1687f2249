package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"hybriddem/internal/decomp"
	"hybriddem/internal/mp"
	"hybriddem/internal/raceflag"
	"hybriddem/internal/shm"
)

// allocConfig is a small system whose particles move slowly enough
// that the link list stays valid throughout the measured window, so
// the gates observe the pure steady-state step.
func allocConfig(mode Mode) Config {
	cfg := Default(2, 400)
	cfg.Mode = mode
	cfg.Warmup = 0
	return cfg
}

// TestStepSteadyStateZeroAllocShared gates the tentpole property for
// the Serial and OpenMP drivers: after a few warm-up steps every
// buffer has reached its steady-state size and step() allocates
// nothing, for every force-update protection method.
func TestStepSteadyStateZeroAllocShared(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	run := func(name string, cfg Config) {
		t.Run(name, func(t *testing.T) {
			s := newSharedSim(cfg)
			defer s.close()
			for i := 0; i < 5; i++ {
				s.step()
			}
			if avg := testing.AllocsPerRun(20, func() { s.step() }); avg != 0 {
				t.Errorf("%s: steady-state step allocates %g times per run, want 0", name, avg)
			}
		})
	}

	run("serial", allocConfig(Serial))
	for _, m := range shm.Methods {
		cfg := allocConfig(OpenMP)
		cfg.T = 3
		cfg.Method = m
		run(fmt.Sprintf("openmp-%v", m), cfg)
	}
}

// measureDistributedAllocs runs warm-up steps on every rank, then
// counts process-wide mallocs across a fenced window of iters further
// steps. All ranks execute steps in lock-step (the energy collective
// synchronises them), so a zero delta proves every rank's step path is
// allocation-free. GC is disabled for the window so the collector's
// own bookkeeping cannot pollute the counter.
func measureDistributedAllocs(t *testing.T, cfg Config, warm, iters int) float64 {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	l, err := decomp.NewLayout(cfg.Box(), cfg.RC(), cfg.P, cfg.BlocksPerProc)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var mallocs uint64
	mp.Run(cfg.P, mp.ZeroNetwork{}, func(c *mp.Comm) {
		r := newRankSim(&cfg, c, l)
		defer r.close()
		r.dm.FillClustered(cfg.N, cfg.Seed, cfg.InitVel, cfg.FillHeight)
		r.rebuild()
		for i := 0; i < warm; i++ {
			r.step()
		}
		var m1, m2 runtime.MemStats
		c.Barrier()
		if c.Rank() == 0 {
			runtime.GC()
			runtime.ReadMemStats(&m1)
		}
		c.Barrier()
		for i := 0; i < iters; i++ {
			r.step()
		}
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m2)
			mallocs = m2.Mallocs - m1.Mallocs
		}
		c.Barrier()
	})
	// Like testing.AllocsPerRun, truncate to an integral per-iteration
	// average: a one-off event (a goroutine stack growing mid-window)
	// is tolerated, any genuine per-step allocation reads >= 1.
	return float64(mallocs / uint64(iters))
}

// TestStepSteadyStateZeroAllocDistributed is the same gate for the
// MPI and Hybrid drivers, covering the halo refresh, the energy
// collective and the team kernels over blocks.
func TestStepSteadyStateZeroAllocDistributed(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"mpi", func() Config {
			cfg := allocConfig(MPI)
			cfg.P = 4
			return cfg
		}},
		{"hybrid", func() Config {
			cfg := allocConfig(Hybrid)
			cfg.P = 2
			cfg.T = 3
			return cfg
		}},
		{"hybrid-fused", func() Config {
			cfg := allocConfig(Hybrid)
			cfg.P = 2
			cfg.T = 3
			cfg.Fused = true
			return cfg
		}},
		// hostbench's two hybrid shapes: ranks with a team of one (the
		// sweep's region runs on the master alone) and one rank whose
		// two threads share every block.
		{"hybrid-2x1", func() Config {
			cfg := allocConfig(Hybrid)
			cfg.P, cfg.T = 2, 1
			return cfg
		}},
		{"hybrid-1x2", func() Config {
			cfg := allocConfig(Hybrid)
			cfg.P, cfg.T, cfg.BlocksPerProc = 1, 2, 2
			return cfg
		}},
		// Synchronous-exchange variants: the default cases above run
		// the split-phase path (Overlap is on in Default), these pin
		// the legacy path so neither protocol regresses.
		{"mpi-sync", func() Config {
			cfg := allocConfig(MPI)
			cfg.P = 4
			cfg.Overlap = false
			return cfg
		}},
		// Rebalance-enabled variants: the dynamic load balancer runs at
		// the initial rebuild (and would run again at any rebuild in
		// the window); the steady-state step itself must stay
		// allocation-free with the knob on.
		{"mpi-rebalance", func() Config {
			cfg := allocConfig(MPI)
			cfg.P = 4
			cfg.BlocksPerProc = 4
			cfg.Rebalance = RebalanceLPT
			return cfg
		}},
		{"hybrid-rebalance", func() Config {
			cfg := allocConfig(Hybrid)
			cfg.P = 2
			cfg.T = 3
			cfg.BlocksPerProc = 4
			cfg.Rebalance = RebalanceLPT
			return cfg
		}},
		// Adaptive ORB variants: the cut-plane tree is built lazily at
		// the first rebalance epoch (the setup rebuild), so the measured
		// steady-state window must see no tree bookkeeping at all.
		{"mpi-orb", func() Config {
			cfg := allocConfig(MPI)
			cfg.P = 4
			cfg.BlocksPerProc = 4
			cfg.Rebalance = RebalanceORB
			return cfg
		}},
		{"hybrid-orb", func() Config {
			cfg := allocConfig(Hybrid)
			cfg.P = 2
			cfg.T = 3
			cfg.BlocksPerProc = 4
			cfg.Rebalance = RebalanceORB
			return cfg
		}},
		{"mpism-orb", func() Config {
			cfg := allocConfig(MPIsm)
			cfg.P = 4
			cfg.BlocksPerProc = 4
			cfg.Rebalance = RebalanceORB
			return cfg
		}},
		{"hybrid-sync", func() Config {
			cfg := allocConfig(Hybrid)
			cfg.P = 2
			cfg.T = 3
			cfg.Overlap = false
			return cfg
		}},
		// Shared-window exchange: under ZeroNetwork every rank shares
		// one node, so these run the fully windowed halo path — the
		// owner-side pack into the window, the fence rendezvous and the
		// fenced GetView/scatter must all recycle their state.
		{"mpism", func() Config {
			cfg := allocConfig(MPIsm)
			cfg.P = 4
			return cfg
		}},
		{"mpism-sync", func() Config {
			cfg := allocConfig(MPIsm)
			cfg.P = 4
			cfg.Overlap = false
			return cfg
		}},
		{"mpism-rebalance", func() Config {
			cfg := allocConfig(MPIsm)
			cfg.P = 4
			cfg.BlocksPerProc = 4
			cfg.Rebalance = RebalanceLPT
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if avg := measureDistributedAllocs(t, tc.cfg(), 5, 20); avg != 0 {
				t.Errorf("%s: steady-state step allocates %g times per iteration, want 0", tc.name, avg)
			}
		})
	}
}

// TestWarmRebuildZeroAllocShared is the cell layer's warm-rebuild gate
// one level up for the Serial and OpenMP drivers: binning, reordering,
// link generation, the prune to the contact-range view and the
// updater's Prepare allocate nothing once warm.
func TestWarmRebuildZeroAllocShared(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	for _, mode := range []Mode{Serial, OpenMP} {
		cfg := allocConfig(mode)
		cfg.T = 2
		s := newSharedSim(cfg)
		for i := 0; i < 3; i++ {
			s.rebuild()
		}
		if len(s.view.Links) == 0 || len(s.view.Links) == len(s.list.Links) {
			t.Errorf("%v: the view holds %d of %d links", mode, len(s.view.Links), len(s.list.Links))
		}
		if avg := testing.AllocsPerRun(10, s.rebuild); avg != 0 {
			t.Errorf("%v: warm rebuild allocates %g times per run, want 0", mode, avg)
		}
		s.close()
	}
}

// TestWarmRebuildZeroAllocDistributed is the cell layer's warm-rebuild
// gate one level up: a whole Domain.Rebuild — migration, reorder, halo
// construction, binning, link generation and the prune to every
// block's contact-range view — allocates nothing once warm, on one
// thread and, in hybrid, with the rank's team attached to the domain so
// that every block is binned and built across it.
func TestWarmRebuildZeroAllocDistributed(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	for _, tc := range []struct {
		name string
		mode Mode
		p, t int
	}{
		{"mpi", MPI, 2, 1},
		{"hybrid-T1", Hybrid, 2, 1},
		{"hybrid-T2", Hybrid, 1, 2},
		{"hybrid-P2-T2", Hybrid, 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := allocConfig(tc.mode)
			cfg.P, cfg.T, cfg.BlocksPerProc = tc.p, tc.t, 2
			l, err := decomp.NewLayout(cfg.Box(), cfg.RC(), cfg.P, cfg.BlocksPerProc)
			if err != nil {
				t.Fatal(err)
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			const rebuilds = 10
			var mallocs uint64
			mp.Run(cfg.P, mp.ZeroNetwork{}, func(c *mp.Comm) {
				r := newRankSim(&cfg, c, l)
				defer r.close()
				if (r.dm.Team != nil) != (cfg.T > 1) {
					t.Errorf("rank %d: team attached to the domain: %v, T=%d", c.Rank(), r.dm.Team != nil, cfg.T)
				}
				rebuild := r.rebuild
				r.dm.FillClustered(cfg.N, cfg.Seed, cfg.InitVel, cfg.FillHeight)
				for i := 0; i < 3; i++ {
					rebuild()
				}
				if b := r.dm.Blocks[0]; len(b.View.Links) == 0 || len(b.View.Links) == len(b.List.Links) {
					t.Errorf("rank %d: the view holds %d of %d links", c.Rank(), len(b.View.Links), len(b.List.Links))
				}
				var m1, m2 runtime.MemStats
				c.Barrier()
				if c.Rank() == 0 {
					runtime.GC()
					runtime.ReadMemStats(&m1)
				}
				c.Barrier()
				for i := 0; i < rebuilds; i++ {
					rebuild()
				}
				c.Barrier()
				if c.Rank() == 0 {
					runtime.ReadMemStats(&m2)
					mallocs = m2.Mallocs - m1.Mallocs
				}
				c.Barrier()
			})
			if avg := mallocs / rebuilds; avg != 0 {
				t.Errorf("warm rebuild allocates %d times per rebuild, want 0", avg)
			}
		})
	}
}
