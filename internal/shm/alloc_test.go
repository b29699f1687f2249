package shm

import (
	"testing"

	"hybriddem/internal/force"
	"hybriddem/internal/raceflag"
)

// TestAccumulateSteadyStateZeroAlloc gates the tentpole property at
// the shm layer: with a warmed team and updater, a full
// zero-force + accumulate + particle-sweep step allocates nothing, for
// every protection method.
func TestAccumulateSteadyStateZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	const n, halo, T = 240, 40, 4
	ps, list, box, sp := buildForceSystem(5, n, halo, 2)
	for _, m := range Methods {
		t.Run(m.String(), func(t *testing.T) {
			tm := NewTeam(T, Costs{})
			defer tm.Close()
			u := NewUpdater(m)
			u.Prepare(list.Links, ps.Len(), n, T)
			ref := ps.SnapshotPos()
			step := func() {
				ZeroForcesParallel(tm, ps, n)
				u.Accumulate(tm, sp, ps, list.Links, list.NCore, n, box)
				// dt = 0 keeps the configuration (and hence the link
				// list) valid forever while still running the kernel.
				SweepParallel(tm, ps, &ref, n, 0, box, force.WrapGlobal)
			}
			for i := 0; i < 5; i++ {
				step() // warm scratch, worker stacks, private arrays
			}
			if avg := testing.AllocsPerRun(20, step); avg != 0 {
				t.Errorf("%v: steady-state step allocates %g times per run, want 0", m, avg)
			}
		})
	}
}

// TestFusedAccumulateSteadyStateZeroAlloc is the same gate for the
// fused single-region updater over multiple blocks.
func TestFusedAccumulateSteadyStateZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	const T = 4
	psA, listA, box, sp := buildForceSystem(19, 200, 30, 2)
	psB, listB, _, _ := buildForceSystem(23, 150, 20, 2)
	pieces := []FusedPiece{
		{PS: psA, Links: listA.Links, NCoreLinks: listA.NCore, NCore: 200},
		{PS: psB, Links: listB.Links, NCoreLinks: listB.NCore, NCore: 150},
	}
	refA, refB := psA.SnapshotPos(), psB.SnapshotPos()
	blocks := []*BlockStore{
		{PS: psA, NCore: 200, Ref: &refA},
		{PS: psB, NCore: 150, Ref: &refB},
	}
	cores := []int{200, 150}

	fu := NewFusedUpdater(SelectedAtomic)
	fu.Prepare(pieces, T)
	tm := NewTeam(T, Costs{})
	defer tm.Close()
	step := func() {
		ZeroForcesAllBlocks(tm, blocks)
		fu.Accumulate(tm, sp, box)
		SweepAllBlocks(tm, blocks, cores, 0, box, force.WrapGlobal)
	}
	for i := 0; i < 5; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(20, step); avg != 0 {
		t.Errorf("fused steady-state step allocates %g times per run, want 0", avg)
	}
}

// TestPrepareWarmZeroAlloc: re-preparing after a (same-shape) rebuild
// reuses the conflict table, locks and scratch.
func TestPrepareWarmZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	const n, halo, T = 240, 40, 4
	ps, list, _, _ := buildForceSystem(7, n, halo, 2)
	u := NewUpdater(SelectedAtomic)
	prep := func() { u.Prepare(list.Links, ps.Len(), n, T) }
	prep()
	if avg := testing.AllocsPerRun(10, prep); avg != 0 {
		t.Errorf("warm Prepare allocates %g times per run, want 0", avg)
	}
}
