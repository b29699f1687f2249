package main

import (
	"fmt"

	"hybriddem/internal/core"
	"hybriddem/internal/server"
)

// runCfg is one of the six fixed configurations every bed is timed
// under. All of them use exactly two CPUs (P·T ≤ 2), so the whole
// matrix fits the two-core sandbox without oversubscription.
type runCfg struct {
	Name string
	Mode core.Mode
	P, T int
}

// configs lists the configurations in the round-robin order of one
// repetition. hybrid_p2 (two ranks, one thread each) never locks an
// update, so against mpi it isolates the thread-path kernel and its
// dispatch; hybrid_t2 (one rank, two threads over the blocks) adds the
// locks and the per-block fork/join.
var configs = []runCfg{
	{"serial", core.Serial, 1, 1},
	{"openmp", core.OpenMP, 1, 2},
	{"mpi", core.MPI, 2, 1},
	{"mpism", core.MPIsm, 2, 1},
	{"hybrid_p2", core.Hybrid, 2, 1},
	{"hybrid_t2", core.Hybrid, 1, 2},
}

func configByName(name string) runCfg {
	for _, rc := range configs {
		if rc.Name == name {
			return rc
		}
	}
	panic("hostbench: no configuration " + name)
}

func (rc runCfg) distributed() bool { return rc.Mode != core.Serial && rc.Mode != core.OpenMP }

// warmup is the number of unmeasured iterations every run starts with.
const warmup = 2

// bed is a generated particle system: everything the program under
// test receives is derived from these numbers and the seed.
type bed struct {
	D, N    int
	Fill    float64 // FillHeight: the bottom fraction of the box holding the particles
	Gravity float64
	Vel     float64 // initial velocity scale
	BPP     int     // blocks per process in the distributed configurations
}

// config builds the core configuration of one bed under one
// configuration: the paper's density and force law (core.Default), no
// platform model — the host clock measures the program, not the cost
// model — and overlap/reorder at their defaults.
func (b bed) config(rc runCfg, seed int64) core.Config {
	cfg := core.Default(b.D, b.N)
	cfg.Seed = seed
	cfg.FillHeight = b.Fill
	cfg.Gravity = b.Gravity
	cfg.InitVel = b.Vel
	cfg.Mode, cfg.P, cfg.T = rc.Mode, rc.P, rc.T
	if rc.distributed() {
		cfg.BlocksPerProc = b.BPP
	}
	cfg.Warmup = warmup
	cfg.Platform = nil
	return cfg
}

// jobSpec is the same bed as a demd job.
func (b bed) jobSpec(mode string, p, iters, every int, seed int64) *server.JobSpec {
	spec := &server.JobSpec{
		D: b.D, N: b.N, Iters: iters, Mode: mode, Seed: seed,
		Fill: b.Fill, Grav: b.Gravity, Vel: b.Vel,
		CheckpointEvery: every,
	}
	if p > 1 {
		spec.P, spec.BPP = p, b.BPP
	}
	return spec
}

// workload is one named set of inputs plus how long each of its parts
// runs. Every workload times the same ten end-to-end metrics on its own
// bed: the six configurations directly through core.Run, and the demd
// service loop (phase A: two closed-loop clients running short serial
// jobs; phase B: one mpi job unbroken against the same job at a durable
// checkpoint every second iteration). The shares say where a run of
// -seconds spends its time; they are what makes `service` the service
// workload and the other three simulation workloads.
type workload struct {
	Name string // why each exists is recorded in /BENCHMARK.json and ../README.md
	Bed  bed

	Iters     int // measured iterations of one core.Run
	MinReps   int // repetitions of the six-configuration round, at least
	TraceReps int // repetitions of the traced pass's runs

	JobIters  int // phase A: iterations of one job
	JobEvery  int // phase A: durable checkpoint cadence
	PairIters int // phase B: iterations of each job of a pair
	MinPairs  int

	// Shares of -seconds given to the simulation rounds and to phase A;
	// phase B gets its MinPairs and whatever is left.
	SimShare, JobShare float64

	// Rebuild assertions on the measured window of every run: -1 for
	// "do not check".
	RebuildsMin, RebuildsMax int
}

// cadence is phase B's durable checkpoint interval: every second
// iteration, so a job of PairIters iterations crosses PairIters/2 - 1
// durable chunk boundaries that the unbroken job does not.
const cadence = 2

func (w *workload) boundaries() int { return w.PairIters/cadence - 1 }

// workloads returns the four workloads at full or smoke size. The
// smoke sizes exist for the test suite only: they exercise every code
// path in seconds and their numbers mean nothing.
func workloads(smoke bool) []*workload {
	ws := []*workload{
		{
			Name:  "uniform3d",
			Bed:   bed{D: 3, N: 100000, BPP: 1},
			Iters: 12, MinReps: 4, TraceReps: 3,
			JobIters: 4, JobEvery: 2, PairIters: 12, MinPairs: 2,
			SimShare: 0.60, JobShare: 0.18,
			RebuildsMin: 0, RebuildsMax: 0,
		},
		{
			Name:  "bed3d",
			Bed:   bed{D: 3, N: 30000, Fill: 0.25, Gravity: -20, Vel: 10, BPP: 4},
			Iters: 30, MinReps: 3, TraceReps: 2,
			JobIters: 16, JobEvery: 4, PairIters: 20, MinPairs: 2,
			SimShare: 0.60, JobShare: 0.18,
			RebuildsMin: 2, RebuildsMax: -1,
		},
		{
			Name:  "fine2d",
			Bed:   bed{D: 2, N: 20000, BPP: 16},
			Iters: 100, MinReps: 6, TraceReps: 3,
			JobIters: 80, JobEvery: 20, PairIters: 40, MinPairs: 3,
			SimShare: 0.60, JobShare: 0.18,
			RebuildsMin: -1, RebuildsMax: -1,
		},
		{
			Name:  "service",
			Bed:   bed{D: 2, N: 5000, Vel: 0.5, BPP: 1},
			Iters: 100, MinReps: 6, TraceReps: 3,
			JobIters: 200, JobEvery: 50, PairIters: 40, MinPairs: 5,
			SimShare: 0.20, JobShare: 0.55,
			RebuildsMin: -1, RebuildsMax: -1,
		},
	}
	if smoke {
		for _, w := range ws {
			if w.Bed.N > 2000 {
				w.Bed.N = 2000
			}
			if w.Bed.BPP > 2 {
				w.Bed.BPP = 2
			}
			w.Iters, w.MinReps, w.TraceReps = 10, 1, 1
			w.JobIters, w.JobEvery = 8, 4
			w.PairIters, w.MinPairs = 8, 1
			w.RebuildsMin, w.RebuildsMax = -1, -1
		}
	}
	return ws
}

func workloadByName(ws []*workload, name string) (*workload, error) {
	for _, w := range ws {
		if w.Name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range ws {
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}
