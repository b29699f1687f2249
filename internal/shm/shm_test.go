package shm

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"hybriddem/internal/cell"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
)

func TestChunkCoversExactly(t *testing.T) {
	for n := 0; n < 50; n++ {
		for T := 1; T <= 8; T++ {
			covered := 0
			prevHi := 0
			for th := 0; th < T; th++ {
				lo, hi := chunk(n, T, th)
				if lo != prevHi {
					t.Fatalf("n=%d T=%d t=%d: gap/overlap lo=%d prev=%d", n, T, th, lo, prevHi)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n || prevHi != n {
				t.Fatalf("n=%d T=%d: covered %d", n, T, covered)
			}
		}
	}
}

func TestRegionRunsAllThreads(t *testing.T) {
	tm := NewTeam(4, Costs{})
	var mask int64
	tm.Region(func(th *Thread) {
		atomic.AddInt64(&mask, 1<<uint(th.ID))
	})
	if mask != 15 {
		t.Errorf("thread mask %b", mask)
	}
	if tm.TC.ParallelRegions != 1 {
		t.Errorf("regions %d", tm.TC.ParallelRegions)
	}
}

func TestRegionClockIsMaxPlusForkJoin(t *testing.T) {
	tm := NewTeam(3, Costs{ForkJoin: 0.5})
	tm.Region(func(th *Thread) {
		th.Compute(float64(th.ID)) // 0, 1, 2
	})
	if got := tm.Clock(); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("team clock %g, want 2.5", got)
	}
}

func TestThreadBarrierEqualisesClocks(t *testing.T) {
	tm := NewTeam(4, Costs{Barrier: 0.1})
	clocks := make([]float64, 4)
	tm.Region(func(th *Thread) {
		th.Compute(float64(th.ID))
		th.Barrier()
		clocks[th.ID] = th.Clock()
	})
	for i, c := range clocks {
		if math.Abs(c-3.1) > 1e-12 {
			t.Errorf("thread %d clock %g, want 3.1", i, c)
		}
	}
}

func TestRepeatedBarriers(t *testing.T) {
	tm := NewTeam(3, Costs{})
	sum := make([]int64, 3)
	tm.Region(func(th *Thread) {
		for i := 0; i < 100; i++ {
			sum[th.ID]++
			th.Barrier()
		}
	})
	for i, s := range sum {
		if s != 100 {
			t.Errorf("thread %d completed %d rounds", i, s)
		}
	}
}

func TestParallelForStaticSchedule(t *testing.T) {
	tm := NewTeam(4, Costs{})
	out := make([]int, 103)
	tm.ParallelFor(103, func(th *Thread, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = th.ID + 1
		}
	})
	for i, v := range out {
		if v == 0 {
			t.Fatalf("index %d not visited", i)
		}
	}
	// Static block schedule: thread ids must be nondecreasing.
	for i := 1; i < len(out); i++ {
		if out[i] < out[i-1] {
			t.Fatalf("schedule not a block distribution at %d", i)
		}
	}
}

func TestCriticalMutualExclusion(t *testing.T) {
	tm := NewTeam(8, Costs{})
	counter := 0
	tm.Region(func(th *Thread) {
		for i := 0; i < 500; i++ {
			tm.Critical(th, func() { counter++ })
		}
	})
	if counter != 8*500 {
		t.Errorf("counter %d", counter)
	}
	if tm.TC.CriticalEnters != 8*500 {
		t.Errorf("critical count %d", tm.TC.CriticalEnters)
	}
}

func TestRegionPanicPropagates(t *testing.T) {
	tm := NewTeam(3, Costs{})
	defer func() {
		if recover() == nil {
			t.Error("thread panic did not propagate")
		}
	}()
	tm.Region(func(th *Thread) {
		if th.ID == 1 {
			panic("thread boom")
		}
		th.Barrier() // must not deadlock on the dead sibling
	})
}

func TestSetCostsUpdatesBarrier(t *testing.T) {
	tm := NewTeam(2, Costs{})
	tm.SetCosts(Costs{Barrier: 0.25})
	tm.Region(func(th *Thread) { th.Barrier() })
	if math.Abs(tm.Clock()-0.25) > 1e-12 {
		t.Errorf("clock %g after barrier with updated cost", tm.Clock())
	}
}

// buildForceSystem builds a random periodic store with a valid link
// list including a synthetic halo region, and a damped spring to run
// over it.
func buildForceSystem(seed int64, n, halo, d int) (*particle.Store, *cell.List, geom.Box, force.Spring) {
	ps, list, box := diffSystem(seed, n, halo, d, geom.Periodic)
	return ps, list, box, force.Spring{Diameter: 0.09, K: 40, Damp: 0.5}
}

// serialReference computes forces and energy with the serial kernel.
func serialReference(ps *particle.Store, list *cell.List, box geom.Box, sp force.Spring) (*particle.Store, float64) {
	ref := ps.Clone()
	ref.ZeroForces()
	nCore := 0
	for i, id := range ref.ID {
		_ = id
		nCore = i + 1
	}
	nCore = len(ref.Pos) // adjusted by caller via list semantics
	e := sp.Accumulate(ref, list.CoreLinks(), nCore, box, 1, nil)
	e += sp.Accumulate(ref, list.HaloLinks(), nCore, box, 0.5, nil)
	return ref, e
}

func TestAllMethodsMatchSerial(t *testing.T) {
	const n, halo = 300, 40
	ps, list, box, sp := buildForceSystem(11, n, halo, 2)
	// Serial reference with halo-force suppression at nCore = n.
	ref := ps.Clone()
	ref.ZeroForces()
	eref := sp.Accumulate(ref, list.CoreLinks(), n, box, 1, nil)
	eref += sp.Accumulate(ref, list.HaloLinks(), n, box, 0.5, nil)

	for _, m := range Methods {
		for _, T := range []int{1, 2, 4, 7} {
			tm := NewTeam(T, Costs{})
			u := NewUpdater(m)
			u.Prepare(list.Links, ps.Len(), n, T)
			work := ps.Clone()
			work.ZeroForces()
			e := u.Accumulate(tm, sp, work, list.Links, list.NCore, n, box)
			if math.Abs(e-eref) > 1e-9*math.Abs(eref) {
				t.Errorf("%v T=%d: energy %g vs serial %g", m, T, e, eref)
			}
			for i := 0; i < n; i++ {
				d := geom.Sub(work.FrcAt(i), ref.FrcAt(i), 2)
				if geom.Norm2(d, 2) > 1e-18 {
					t.Errorf("%v T=%d: force mismatch at %d: %v vs %v", m, T, i, work.FrcAt(i), ref.FrcAt(i))
					break
				}
			}
			for i := n; i < n+halo; i++ {
				if work.FrcAt(i) != (geom.Vec{}) {
					t.Errorf("%v T=%d: halo particle %d received force", m, T, i)
					break
				}
			}
		}
	}
}

func TestConflictTableMarksOnlyShared(t *testing.T) {
	// Hand-built list: particles 0,1 used only by thread 0's links;
	// particle 2 by both threads (with T=2 and 4 links, threads get 2
	// links each).
	links := []cell.Link{{I: 0, J: 1}, {I: 0, J: 2}, {I: 2, J: 3}, {I: 3, J: 4}}
	ct := BuildConflictTable(links, 5, 5, 2)
	wantShared := map[int32]bool{2: true, 3: false}
	// Thread 0 has links {0-1, 0-2}; thread 1 has {2-3, 3-4}.
	// Particle 2 is touched by both; 3 only by thread 1.
	for p, want := range wantShared {
		if ct.shared[p] != want {
			t.Errorf("particle %d shared=%v, want %v", p, ct.shared[p], want)
		}
	}
	if ct.NumShared() != 1 {
		t.Errorf("NumShared = %d", ct.NumShared())
	}
}

func TestConflictTableIgnoresHalo(t *testing.T) {
	links := []cell.Link{{I: 0, J: 3}, {I: 1, J: 3}}
	ct := BuildConflictTable(links, 4, 3, 2) // particle 3 is halo
	if ct.shared[3] {
		t.Error("halo particle marked shared")
	}
	if ct.NumShared() != 0 {
		t.Errorf("NumShared = %d", ct.NumShared())
	}
}

func TestSelectedAtomicCountsConflicts(t *testing.T) {
	// The conflict fraction is a property of the (cell-ordered) link
	// list: only particles near thread-chunk boundaries need locks,
	// so the fraction falls as the block grows — the paper reports a
	// few percent for whole-node blocks rising towards 50% only for
	// tiny hybrid blocks.
	const n = 2000
	box := geom.NewBox(2, 1.0, geom.Periodic)
	ps := particle.New(2, n)
	rng := rand.New(rand.NewSource(13))
	particle.FillUniformVel(ps, n, box, 0.3, 0, rng)
	sp := force.Spring{Diameter: 0.04, K: 40}
	rc := 0.06
	g := cell.NewGrid(2, geom.Vec{}, box.Len, rc, true)
	g.Bin(&ps.Pos, n, nil)
	list := g.BuildLinks(&ps.Pos, n, n, rc*rc, box, nil)

	tm := NewTeam(4, Costs{})
	u := NewUpdater(SelectedAtomic)
	u.Prepare(list.Links, ps.Len(), n, 4)
	ps.ZeroForces()
	u.Accumulate(tm, sp, ps, list.Links, list.NCore, n, box)
	tc := &tm.TC
	if tc.AtomicsTaken == 0 {
		t.Error("expected some protected updates with 4 threads")
	}
	if tc.AtomicsAvoided == 0 {
		t.Error("expected some unprotected updates")
	}
	frac := tc.AtomicFraction()
	if frac <= 0 || frac >= 0.5 {
		t.Errorf("atomic fraction %g implausible for a large single block", frac)
	}
	// Full atomic must lock everything.
	tm2 := NewTeam(4, Costs{})
	u2 := NewUpdater(Atomic)
	u2.Prepare(list.Links, ps.Len(), n, 4)
	ps.ZeroForces()
	u2.Accumulate(tm2, sp, ps, list.Links, list.NCore, n, box)
	if tm2.TC.AtomicsAvoided != 0 {
		t.Error("atomic method skipped locks")
	}
}

func TestModeledAtomicCostCharged(t *testing.T) {
	const n = 200
	ps, list, box, sp := buildForceSystem(17, n, 0, 2)
	costs := Costs{AtomicTaken: 1e-6, PerLink: 0, PerUpdate: 0}
	tmA := NewTeam(2, costs)
	uA := NewUpdater(Atomic)
	uA.Prepare(list.Links, ps.Len(), n, 2)
	ps.ZeroForces()
	uA.Accumulate(tmA, sp, ps, list.Links, list.NCore, n, box)

	tmS := NewTeam(2, costs)
	uS := NewUpdater(SelectedAtomic)
	uS.Prepare(list.Links, ps.Len(), n, 2)
	ps.ZeroForces()
	uS.Accumulate(tmS, sp, ps, list.Links, list.NCore, n, box)

	if tmA.Clock() <= tmS.Clock() {
		t.Errorf("atomic modelled time %g not above selected-atomic %g", tmA.Clock(), tmS.Clock())
	}
}

func TestFusedMatchesSerial(t *testing.T) {
	// Two pieces (blocks) with separate stores.
	psA, listA, box, sp := buildForceSystem(19, 200, 30, 2)
	psB, listB, _, _ := buildForceSystem(23, 150, 20, 2)

	refA := psA.Clone()
	refA.ZeroForces()
	eref := sp.Accumulate(refA, listA.CoreLinks(), 200, box, 1, nil)
	eref += sp.Accumulate(refA, listA.HaloLinks(), 200, box, 0.5, nil)
	refB := psB.Clone()
	refB.ZeroForces()
	eref += sp.Accumulate(refB, listB.CoreLinks(), 150, box, 1, nil)
	eref += sp.Accumulate(refB, listB.HaloLinks(), 150, box, 0.5, nil)

	for _, m := range []Method{Atomic, SelectedAtomic} {
		for _, T := range []int{1, 3, 5} {
			fu := NewFusedUpdater(m)
			workA, workB := psA.Clone(), psB.Clone()
			workA.ZeroForces()
			workB.ZeroForces()
			fu.Prepare([]FusedPiece{
				{PS: workA, Links: listA.Links, NCoreLinks: listA.NCore, NCore: 200},
				{PS: workB, Links: listB.Links, NCoreLinks: listB.NCore, NCore: 150},
			}, T)
			tm := NewTeam(T, Costs{})
			e := fu.Accumulate(tm, sp, box)
			if math.Abs(e-eref) > 1e-9*math.Abs(eref) {
				t.Errorf("fused %v T=%d: energy %g vs %g", m, T, e, eref)
			}
			for i := 0; i < 200; i++ {
				if geom.Norm2(geom.Sub(workA.FrcAt(i), refA.FrcAt(i), 2), 2) > 1e-18 {
					t.Errorf("fused %v T=%d: piece A force mismatch at %d", m, T, i)
					break
				}
			}
			for i := 0; i < 150; i++ {
				if geom.Norm2(geom.Sub(workB.FrcAt(i), refB.FrcAt(i), 2), 2) > 1e-18 {
					t.Errorf("fused %v T=%d: piece B force mismatch at %d", m, T, i)
					break
				}
			}
		}
	}
}

func TestFusedReducesConflictsVsPerBlock(t *testing.T) {
	// With many pieces and few threads, global chunking gives most
	// pieces to a single thread: the fused conflict count must be far
	// below the per-block tables' total.
	const T = 4
	var pieces []FusedPiece
	perBlockShared := 0
	for s := int64(0); s < 12; s++ {
		ps, list, _, _ := buildForceSystem(100+s, 120, 15, 2)
		pieces = append(pieces, FusedPiece{PS: ps, Links: list.Links, NCoreLinks: list.NCore, NCore: 120})
		ct := BuildConflictTable(list.Links, ps.Len(), 120, T)
		perBlockShared += ct.NumShared()
	}
	fu := NewFusedUpdater(SelectedAtomic)
	fu.Prepare(pieces, T)
	if fu.NumShared()*4 > perBlockShared {
		t.Errorf("fused shared %d not well below per-block %d", fu.NumShared(), perBlockShared)
	}
}

func TestFusedRejectsReductionMethods(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("fused updater accepted stripe method")
		}
	}()
	NewFusedUpdater(Stripe)
}

func TestIntegrateParallelMatchesSerial(t *testing.T) {
	box := geom.NewBox(2, 1, geom.Periodic)
	a := particle.New(2, 100)
	rng := rand.New(rand.NewSource(31))
	particle.FillUniformVel(a, 100, box, 0.5, 0, rng)
	for i := range a.Frc {
		a.Frc[0][i], a.Frc[1][i] = float64(i%7), float64(i%3)
	}
	b := a.Clone()
	force.Integrate(a, 100, 0.01, box, force.WrapGlobal, nil)
	tm := NewTeam(3, Costs{})
	IntegrateParallel(tm, b, 100, 0.01, box, force.WrapGlobal)
	for i := 0; i < 100; i++ {
		if a.PosAt(i) != b.PosAt(i) || a.VelAt(i) != b.VelAt(i) {
			t.Fatalf("parallel integrate diverges at %d", i)
		}
	}
}

func TestZeroForcesAllBlocks(t *testing.T) {
	var blocks []*BlockStore
	for k := 0; k < 3; k++ {
		ps := particle.New(2, 10)
		for i := 0; i < 10; i++ {
			ps.Append(geom.Vec{}, geom.Vec{}, int32(i))
			ps.Frc[0][i], ps.Frc[1][i] = 1, 2
		}
		blocks = append(blocks, &BlockStore{PS: ps, NCore: 8})
	}
	tm := NewTeam(2, Costs{})
	ZeroForcesAllBlocks(tm, blocks)
	for k, b := range blocks {
		for i := 0; i < 8; i++ {
			if b.PS.FrcAt(i) != (geom.Vec{}) {
				t.Fatalf("block %d core force %d not cleared", k, i)
			}
		}
		// Halo force untouched (never read, never cleared).
		if b.PS.FrcAt(9) == (geom.Vec{}) {
			t.Fatalf("block %d halo force cleared unexpectedly", k)
		}
	}
}

func TestMethodString(t *testing.T) {
	if Atomic.String() != "atomic" || SelectedAtomic.String() != "selected-atomic" {
		t.Error("method names")
	}
	if Method(99).String() == "" {
		t.Error("unknown method should format")
	}
}

func TestCriticalReductionModelsSerialisation(t *testing.T) {
	// The modelled region time of the critical reduction must grow
	// about linearly with T (the paper's "extremely poor" strategy).
	const n = 300
	ps, list, box, sp := buildForceSystem(37, n, 0, 2)
	costs := Costs{ReductionWord: 1e-7}
	times := map[int]float64{}
	for _, T := range []int{1, 2, 4} {
		tm := NewTeam(T, costs)
		u := NewUpdater(CriticalReduction)
		u.Prepare(list.Links, ps.Len(), n, T)
		ps.ZeroForces()
		u.Accumulate(tm, sp, ps, list.Links, list.NCore, n, box)
		times[T] = tm.Clock()
	}
	if times[4] < 1.5*times[2] {
		t.Errorf("critical reduction not serialising: T=2 %g, T=4 %g", times[2], times[4])
	}
}
