package core

import (
	"testing"
	"time"

	"hybriddem/internal/decomp"
	"hybriddem/internal/mp"
)

// steadyWarm is the warm-up of the benchmarks whose list never goes
// stale: three steps, after which every step buffer has its size.
const steadyWarm = 3

// benchShared times the steady-state step of the Serial/OpenMP
// drivers after warm unmeasured steps. ReportAllocs makes the
// zero-allocation property visible in benchmark output (and in CI,
// which runs these with -benchtime=1x as a smoke test).
func benchShared(b *testing.B, cfg Config, warm int) {
	s := newSharedSim(cfg)
	defer s.close()
	for i := 0; i < warm; i++ {
		s.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step()
	}
}

func BenchmarkStepSerial(b *testing.B) {
	benchShared(b, allocConfig(Serial), steadyWarm)
}

func BenchmarkStepOpenMP(b *testing.B) {
	cfg := allocConfig(OpenMP)
	cfg.T = 4
	benchShared(b, cfg, steadyWarm)
}

// benchDistributed times the steady-state step of the MPI/Hybrid
// drivers: every rank executes b.N lock-stepped iterations, so one
// benchmark op is one global timestep.
func benchDistributed(b *testing.B, cfg Config, warm int) {
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	l, err := decomp.NewLayout(cfg.Box(), cfg.RC(), cfg.P, cfg.BlocksPerProc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	mp.Run(cfg.P, mp.ZeroNetwork{}, func(c *mp.Comm) {
		r := newRankSim(&cfg, c, l)
		defer r.close()
		r.dm.FillClustered(cfg.N, cfg.Seed, cfg.InitVel, cfg.FillHeight)
		r.rebuild()
		for i := 0; i < warm; i++ {
			r.step()
		}
		// Warm steps are collectively synchronised, so by the time
		// rank 0 resets the timer every rank is in its steady state.
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		c.Barrier()
		for i := 0; i < b.N; i++ {
			r.step()
		}
	})
}

func BenchmarkStepMPI(b *testing.B) {
	cfg := allocConfig(MPI)
	cfg.P = 4
	benchDistributed(b, cfg, steadyWarm)
}

func BenchmarkStepHybrid(b *testing.B) {
	cfg := allocConfig(Hybrid)
	cfg.P = 2
	cfg.T = 2
	benchDistributed(b, cfg, steadyWarm)
}

func BenchmarkStepHybridFused(b *testing.B) {
	cfg := allocConfig(Hybrid)
	cfg.P = 2
	cfg.T = 2
	cfg.Fused = true
	benchDistributed(b, cfg, steadyWarm)
}

// BenchmarkStepMPIsm times the shared-window exchange; under
// ZeroNetwork all four ranks share a node, so every halo leg is a
// fenced load rather than a message.
func BenchmarkStepMPIsm(b *testing.B) {
	cfg := allocConfig(MPIsm)
	cfg.P = 4
	benchDistributed(b, cfg, steadyWarm)
}

// BenchmarkStepORB times the steady-state step under the adaptive ORB
// decomposition: the cut tree and its scratch are built at the setup
// rebuild, so the measured window must show the same zero-allocation
// step as the static deal (the alloc gate asserts it; ReportAllocs in
// benchDistributed makes it visible here).
func BenchmarkStepORB(b *testing.B) {
	cfg := allocConfig(MPI)
	cfg.P = 4
	cfg.BlocksPerProc = 4
	cfg.Rebalance = RebalanceORB
	benchDistributed(b, cfg, steadyWarm)
}

// The NoOverlap variants pin the synchronous exchange so the
// split-phase default can be compared against it (host time and
// allocations) from the same benchmark run.

func BenchmarkStepMPINoOverlap(b *testing.B) {
	cfg := allocConfig(MPI)
	cfg.P = 4
	cfg.Overlap = false
	benchDistributed(b, cfg, steadyWarm)
}

func BenchmarkStepHybridNoOverlap(b *testing.B) {
	cfg := allocConfig(Hybrid)
	cfg.P = 2
	cfg.T = 2
	cfg.Overlap = false
	benchDistributed(b, cfg, steadyWarm)
}

// benchBed is a small moving bed — hostbench's bed3d at a seventh of
// its size: grains thrown about the bottom quarter of the box under
// gravity exhaust the skin every dozen steps, so a benchmark loop over
// it runs the whole rebuild (binning, the cache reorder, migration and
// halo construction, link generation, conflict tables) as well as the
// step.
func benchBed(mode Mode) Config {
	cfg := Default(3, 4000)
	cfg.Mode = mode
	cfg.FillHeight, cfg.Gravity, cfg.InitVel = 0.25, -20, 10
	cfg.BlocksPerProc = 4
	cfg.Warmup = 0
	return cfg
}

// bedWarm steps take the bed through its first half-dozen rebuilds,
// which grow the rebuild's buffers the way steadyWarm steps grow the
// step's.
const bedWarm = 80

// The StepBed benchmarks time the step of a bed that rebuilds inside
// the loop: one op is one timestep, a rebuild's cost spread over the
// steps between two of them, and once warm 0 allocs/op.

func BenchmarkStepBedSerial(b *testing.B) {
	benchShared(b, benchBed(Serial), bedWarm)
}

func BenchmarkStepBedOpenMP(b *testing.B) {
	cfg := benchBed(OpenMP)
	cfg.T = 2
	benchShared(b, cfg, bedWarm)
}

func BenchmarkStepBedMPI(b *testing.B) {
	cfg := benchBed(MPI)
	cfg.P = 2
	benchDistributed(b, cfg, bedWarm)
}

func BenchmarkStepBedHybridT2(b *testing.B) {
	cfg := benchBed(Hybrid)
	cfg.T = 2
	benchDistributed(b, cfg, bedWarm)
}

// BenchmarkStepBedHybridFused is BenchmarkStepBedHybridT2 with one
// updater over all of the rank's blocks, so the multi-block Prepare
// runs inside the loop at every rebuild.
func BenchmarkStepBedHybridFused(b *testing.B) {
	cfg := benchBed(Hybrid)
	cfg.T = 2
	cfg.Fused = true
	benchDistributed(b, cfg, bedWarm)
}

// benchChunkBoundary times what a durable chunk costs the engine: a run
// advanced through AdvanceTo with a save every second step — the end of
// an Advance, the gather of the state by particle id and as the stores
// hold it, the Result — against the same run unbroken, per boundary
// crossed. Nothing is rebuilt: the run continues on the same lists. The
// save keeps the gathered state in memory; encoding and the disk are
// the checkpoint package's benchmarks. CI's boundary gate holds it to
// 4x the StepChunkBed step of the same bed.
func benchChunkBoundary(b *testing.B, cfg Config) {
	const iters, every = 12, 2
	cfg.CollectState = true
	var kept *Result
	run := func(every int) time.Duration {
		s, err := Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		start := time.Now()
		if _, err := s.AdvanceTo(0, iters, every, func(res *Result, _ int) error { kept = res; return nil }); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	var chunked, unbroken time.Duration
	for i := 0; i < b.N; i++ {
		chunked += run(every)
		unbroken += run(0)
	}
	if kept == nil || len(kept.Pos) != cfg.N {
		b.Fatal("no state was saved")
	}
	boundaries := float64(b.N * (iters/every - 1))
	b.ReportMetric(float64((chunked-unbroken).Microseconds())/1e3/boundaries, "ms/boundary")
	b.ReportMetric(0, "ns/op") // two runs and two set-ups: not a quantity
}

// chunkBed is hostbench's uniform3d bed: 10⁵ particles at rest in three
// dimensions, a list that never goes stale on its own.
func chunkBed(mode Mode) Config {
	cfg := Default(3, 100_000)
	cfg.Mode, cfg.Seed, cfg.Warmup = mode, 1, 2
	return cfg
}

func BenchmarkChunkBoundarySerial(b *testing.B) { benchChunkBoundary(b, chunkBed(Serial)) }

func BenchmarkChunkBoundaryMPI(b *testing.B) {
	cfg := chunkBed(MPI)
	cfg.P = 2
	benchChunkBoundary(b, cfg)
}

// supervisedCost advances the chunk bed (mpi P=2) iters steps under
// supervision with ft and the same run unsupervised, b.N times each,
// and returns the host time each side spent advancing.
func supervisedCost(b *testing.B, ft FTConfig, iters int) (supervised, plain time.Duration) {
	cfg := chunkBed(MPI)
	cfg.P = 2
	run := func(ft *FTConfig) time.Duration {
		s, err := open(cfg, ft)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		start := time.Now()
		if err := s.Advance(iters); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	for i := 0; i < b.N; i++ {
		own := ft // open fills in the defaults
		supervised += run(&own)
		plain += run(nil)
	}
	return supervised, plain
}

// BenchmarkSnapshotMPI times what an in-memory rollback snapshot costs:
// a snapshot after every step, against no supervision, per snapshot.
func BenchmarkSnapshotMPI(b *testing.B) {
	const iters = 12
	supervised, plain := supervisedCost(b, FTConfig{SnapshotEvery: 1}, iters)
	b.ReportMetric(float64((supervised-plain).Microseconds())/1e3/float64(b.N*iters), "ms/snapshot")
	b.ReportMetric(0, "ns/op") // two runs and two set-ups: not a quantity
}

// BenchmarkSuperviseDefaultMPI times supervision at the cadence an
// FTConfig leaves at 0, over two of its periods: the share of a step it
// adds to an unsupervised run.
func BenchmarkSuperviseDefaultMPI(b *testing.B) {
	iters := 2 * DefaultSnapshotEvery
	supervised, plain := supervisedCost(b, FTConfig{}, iters)
	b.ReportMetric(float64(plain.Microseconds())/1e3/float64(b.N*iters), "ms/step")
	b.ReportMetric(100*(float64(supervised)/float64(plain)-1), "%overhead")
	b.ReportMetric(0, "ns/op") // two runs and two set-ups: not a quantity
}

// The StepChunkBed benchmarks time one step of the chunk bed, the unit
// a boundary's cost is judged in.

func BenchmarkStepChunkBedSerial(b *testing.B) {
	benchShared(b, chunkBed(Serial), steadyWarm)
}

func BenchmarkStepChunkBedMPI(b *testing.B) {
	cfg := chunkBed(MPI)
	cfg.P = 2
	benchDistributed(b, cfg, steadyWarm)
}
