// Benchmarks: one per table and figure of the paper (regenerating the
// experiment at reduced scale and reporting the modelled headline
// number as a custom metric), plus micro-benchmarks of the hot
// kernels that dominate a real run on the host machine.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package hybriddem

import (
	"bytes"
	"io"
	"math/rand"
	"strconv"
	"testing"

	"hybriddem/internal/bench"
	"hybriddem/internal/cell"
	"hybriddem/internal/checkpoint"
	"hybriddem/internal/core"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/machine"
	"hybriddem/internal/particle"
	"hybriddem/internal/shm"
	"hybriddem/internal/trace"
)

// benchOpts keeps the experiment regenerations short enough for the
// benchmark harness while preserving every structural property.
func benchOpts() bench.Options {
	return bench.Options{N: 40_000, Iters: 1, Warmup: 1, Seed: 1}
}

// runExperiment benchmarks one table/figure generator and reports the
// modelled seconds of its first data cell as a metric.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	o := benchOpts()
	var rep *bench.Report
	for i := 0; i < b.N; i++ {
		rep = e.Run(o)
	}
	if len(rep.Rows) == 0 {
		b.Fatalf("%s produced no rows", id)
	}
	if v, err := strconv.ParseFloat(rep.Rows[0][len(rep.Rows[0])-1], 64); err == nil {
		b.ReportMetric(v, "model")
	}
}

func BenchmarkTable1BaseTimes(b *testing.B)          { runExperiment(b, "T1") }
func BenchmarkTable2Reordered(b *testing.B)          { runExperiment(b, "T2") }
func BenchmarkFigure1MPIScaling(b *testing.B)        { runExperiment(b, "F1") }
func BenchmarkFigure2MPIScalingReorder(b *testing.B) { runExperiment(b, "F2") }
func BenchmarkFigure3Granularity(b *testing.B)       { runExperiment(b, "F3") }
func BenchmarkFigure4OpenMPSun(b *testing.B)         { runExperiment(b, "F4") }
func BenchmarkFigure5OpenMPCompaq(b *testing.B)      { runExperiment(b, "F5") }
func BenchmarkFigure6Crossover(b *testing.B)         { runExperiment(b, "F6") }
func BenchmarkFigure7HybridD2(b *testing.B)          { runExperiment(b, "F7") }
func BenchmarkFigure8HybridD3(b *testing.B)          { runExperiment(b, "F8") }
func BenchmarkOMPSyncOverhead(b *testing.B)          { runExperiment(b, "X1") }
func BenchmarkLockFraction(b *testing.B)             { runExperiment(b, "X2") }
func BenchmarkNoLockAblation(b *testing.B)           { runExperiment(b, "X3") }
func BenchmarkFusedRegions(b *testing.B)             { runExperiment(b, "X4") }

// --- kernel micro-benchmarks -------------------------------------

// benchSystem builds a cell-ordered store with a valid link list at
// the paper's density.
func benchSystem(b *testing.B, d, n int, rcFactor float64) (*particle.Store, *cell.List, geom.Box, force.Spring) {
	b.Helper()
	cfg := core.Default(d, n)
	box := cfg.Box()
	ps := particle.New(d, n)
	rng := rand.New(rand.NewSource(1))
	particle.FillUniform(ps, n, box, 0, rng)
	rc := rcFactor * cfg.Spring.Diameter
	g := cell.NewGrid(d, geom.Vec{}, box.Len, rc, true)
	g.Bin(&ps.Pos, n, nil)
	ps.Permute(g.Order())
	g.Bin(&ps.Pos, n, nil)
	list := g.BuildLinks(&ps.Pos, n, n, rc*rc, box, nil)
	return ps, list, box, cfg.Spring
}

func BenchmarkForceSerial2D(b *testing.B) {
	ps, list, box, sp := benchSystem(b, 2, 50_000, 1.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.ZeroForces()
		sp.Accumulate(ps, list.Links, ps.Len(), box, 1, nil)
	}
	b.ReportMetric(float64(len(list.Links)), "links")
}

func BenchmarkForceSerial3D(b *testing.B) {
	ps, list, box, sp := benchSystem(b, 3, 50_000, 1.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.ZeroForces()
		sp.Accumulate(ps, list.Links, ps.Len(), box, 1, nil)
	}
	b.ReportMetric(float64(len(list.Links)), "links")
}

func benchUpdater(b *testing.B, method shm.Method, threads int) {
	ps, list, box, sp := benchSystem(b, 3, 50_000, 1.5)
	tm := shm.NewTeam(threads, shm.Costs{})
	u := shm.NewUpdater(method)
	u.Prepare(list.Links, ps.Len(), ps.Len(), threads)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.ZeroForces()
		u.Accumulate(tm, sp, ps, list.Links, len(list.Links), ps.Len(), box)
	}
}

// BenchmarkUpdaterSelectedAtomicT1 is the thread path's kernel with
// nothing to lock, on BenchmarkForceSerial3D's list: CI holds it to
// 1.15x the serial kernel and 0 allocs/op (bench-and-alloc-gate).
func BenchmarkUpdaterSelectedAtomicT1(b *testing.B) { benchUpdater(b, shm.SelectedAtomic, 1) }

func BenchmarkUpdaterAtomicT4(b *testing.B)         { benchUpdater(b, shm.Atomic, 4) }
func BenchmarkUpdaterSelectedAtomicT4(b *testing.B) { benchUpdater(b, shm.SelectedAtomic, 4) }
func BenchmarkUpdaterStripeT4(b *testing.B)         { benchUpdater(b, shm.Stripe, 4) }
func BenchmarkUpdaterTransposeT4(b *testing.B)      { benchUpdater(b, shm.Transpose, 4) }

func BenchmarkLinkListBuild3D(b *testing.B) {
	cfg := core.Default(3, 50_000)
	box := cfg.Box()
	ps := particle.New(3, cfg.N)
	rng := rand.New(rand.NewSource(1))
	particle.FillUniform(ps, cfg.N, box, 0, rng)
	rc := cfg.RC()
	g := cell.NewGrid(3, geom.Vec{}, box.Len, rc, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Bin(&ps.Pos, cfg.N, nil)
		g.BuildLinks(&ps.Pos, cfg.N, cfg.N, rc*rc, box, nil)
	}
}

// BenchmarkLinkBuildBed3D is the rebuild's link generation on hostbench's
// bed3d density (the bottom quarter of the box, ~13 particles a cell): bin
// the reordered store and build the list into reused storage, as a serial
// rebuild does. CI holds ns/link to 4x BenchmarkForceSerial3D's and to
// 0 allocs/op (bench-and-alloc-gate).
func BenchmarkLinkBuildBed3D(b *testing.B) {
	cfg := core.Default(3, 30_000)
	box := cfg.Box()
	ps := particle.New(3, cfg.N)
	particle.FillClustered(ps, cfg.N, box, 0.25, 0, 0, rand.New(rand.NewSource(1)))
	rc := cfg.RC()
	g := cell.NewGrid(3, geom.Vec{}, box.Len, rc, true)
	g.Bin(&ps.Pos, cfg.N, nil)
	ps.Permute(g.Order())
	var buf cell.ListBuffer
	var tc trace.Counters
	links := 0
	build := func() {
		g.Bin(&ps.Pos, cfg.N, &tc)
		links = len(g.BuildLinksInto(&buf, &ps.Pos, cfg.N, cfg.N, rc*rc, box, &tc).Links)
	}
	build() // grow the storage outside the timed loop
	tc = trace.Counters{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*links), "ns/link")
	b.ReportMetric(float64(tc.PairChecks)/float64(b.N*links), "checks/link")
}

func BenchmarkIntegrate3D(b *testing.B) {
	ps, _, box, _ := benchSystem(b, 3, 50_000, 1.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		force.Integrate(ps, ps.Len(), 1e-6, box, force.WrapGlobal, nil)
	}
}

// particleBench runs pass once per iteration over 10⁵ slowly moving
// particles in a periodic 3-D box, under both wrap modes, and reports
// ns/particle: the working set (nine arrays plus the reference, 9.6 MB)
// is past L2, as in a real step.
func particleBench(b *testing.B, pass func(ps *particle.Store, ref *geom.Coords, n int, dt float64, box geom.Box, mode force.WrapMode) float64) {
	const n = 100_000
	cfg := core.Default(3, n)
	box := cfg.Box()
	for _, m := range []struct {
		name string
		mode force.WrapMode
	}{{"WrapGlobal", force.WrapGlobal}, {"WrapDeferred", force.WrapDeferred}} {
		b.Run(m.name, func(b *testing.B) {
			ps := particle.New(3, n)
			particle.FillUniformVel(ps, n, box, 1, 0, rand.New(rand.NewSource(1)))
			ref := ps.SnapshotPos()
			sink := 0.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += pass(ps, &ref, n, 1e-6, box, m.mode)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/particle")
			if sink < 0 {
				b.Fatal("negative energy")
			}
		})
	}
}

// BenchmarkParticlePasses3D is the particle half of a step as three
// exported passes: move, then sum the energy, then look for the
// largest displacement.
func BenchmarkParticlePasses3D(b *testing.B) {
	particleBench(b, func(ps *particle.Store, ref *geom.Coords, n int, dt float64, box geom.Box, mode force.WrapMode) float64 {
		force.Integrate(ps, n, dt, box, mode, nil)
		return force.KineticEnergy(ps, n) + ps.MaxDisp2(ref, n, box)
	})
}

// BenchmarkParticleSweep3D is the same work in the one walk the step
// loops make.
func BenchmarkParticleSweep3D(b *testing.B) {
	particleBench(b, func(ps *particle.Store, ref *geom.Coords, n int, dt float64, box geom.Box, mode force.WrapMode) float64 {
		e, m := force.Sweep(ps, ref, 0, n, dt, box, mode, nil)
		return e + m
	})
}

// checkpointBench builds the snapshot of 10⁵ free particles in three
// dimensions — particleBench's bed, 4.8 MB of state — and its frame.
func checkpointBench(b *testing.B) (*checkpoint.Snapshot, []byte) {
	const n = 100_000
	cfg := core.Default(3, n)
	ps := particle.New(3, n)
	particle.FillUniformVel(ps, n, cfg.Box(), 1, 0, rand.New(rand.NewSource(1)))
	res := &core.Result{Pos: ps.Pos.Vecs(n, 3), Vel: ps.Vel.Vecs(n, 3)}
	snap, err := checkpoint.FromResult(&cfg, res, 1)
	if err != nil {
		b.Fatal(err)
	}
	var frame bytes.Buffer
	if err := checkpoint.Save(&frame, snap); err != nil {
		b.Fatal(err)
	}
	return snap, frame.Bytes()
}

// BenchmarkCheckpointSave3D is the checkpoint encoder alone — layout,
// checksum, no disk — per particle and per byte of frame. CI holds it
// to a multiple of BenchmarkParticleSweep3D: writing a particle down
// may cost a few times what moving it costs, not forty.
func BenchmarkCheckpointSave3D(b *testing.B) {
	snap, frame := checkpointBench(b)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := checkpoint.Save(io.Discard, snap); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*snap.N), "ns/particle")
}

// BenchmarkCheckpointLoad3D is the decoder on the same frame: read,
// checksum, layout checks, state arrays.
func BenchmarkCheckpointLoad3D(b *testing.B) {
	snap, frame := checkpointBench(b)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checkpoint.Load(bytes.NewReader(frame)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*snap.N), "ns/particle")
}

func BenchmarkConflictTableBuild(b *testing.B) {
	ps, list, _, _ := benchSystem(b, 3, 50_000, 1.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shm.BuildConflictTable(list.Links, ps.Len(), ps.Len(), 4)
	}
}

func BenchmarkHybridIteration(b *testing.B) {
	// One full hybrid step cycle at bench scale, wall-clock.
	cfg := core.Default(3, 20_000)
	cfg.Mode = core.Hybrid
	cfg.P, cfg.T = 2, 2
	cfg.BlocksPerProc = 2
	cfg.Method = shm.SelectedAtomic
	cfg.Platform = machine.CompaqES40()
	cfg.Warmup = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(cfg, 3); err != nil {
			b.Fatal(err)
		}
	}
}
