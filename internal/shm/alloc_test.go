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
			ref := ps.SnapshotPos()
			blocks := []*BlockStore{{PS: ps, NCore: n, Ref: &ref, Links: list.Links, NCoreLinks: list.NCore}}
			cores := []int{n}
			u := NewUpdater(m)
			u.PrepareBlocks(blocks, T)
			one := NewUpdater(m)
			one.Prepare(list.Links, ps.Len(), n, T)
			step := func() {
				ZeroForcesAllBlocks(tm, blocks)
				u.AccumulateBlocks(tm, sp, box, false)
				one.Accumulate(tm, sp, ps, list.Links, list.NCore, n, box)
				// dt = 0 keeps the configuration (and hence the link
				// list) valid forever while still running the kernel.
				SweepAllBlocks(tm, blocks, cores, 0, box, force.WrapGlobal)
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

// TestFusedAccumulateSteadyStateZeroAlloc is the same gate for one
// updater over several blocks, the fused single region.
func TestFusedAccumulateSteadyStateZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	const T = 4
	psA, listA, box, sp := buildForceSystem(19, 200, 30, 2)
	psB, listB, _, _ := buildForceSystem(23, 150, 20, 2)
	refA, refB := psA.SnapshotPos(), psB.SnapshotPos()
	blocks := []*BlockStore{
		{PS: psA, NCore: 200, Ref: &refA, Links: listA.Links, NCoreLinks: listA.NCore},
		{PS: psB, NCore: 150, Ref: &refB, Links: listB.Links, NCoreLinks: listB.NCore},
	}
	cores := []int{200, 150}

	fu := NewUpdater(SelectedAtomic)
	fu.PrepareBlocks(blocks, T)
	tm := NewTeam(T, Costs{})
	defer tm.Close()
	step := func() {
		ZeroForcesAllBlocks(tm, blocks)
		fu.AccumulateBlocks(tm, sp, box, false)
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
// reuses the conflict tables, locks and scratch, over one block or
// several.
func TestPrepareWarmZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	const n, halo, T = 240, 40, 4
	ps, list, _, _ := buildForceSystem(7, n, halo, 2)
	u := NewUpdater(SelectedAtomic)
	fu := NewUpdater(SelectedAtomic)
	blocks := []*BlockStore{
		{PS: ps, NCore: n, Links: list.Links[:len(list.Links)/2]},
		{PS: ps, NCore: n, Links: list.Links[len(list.Links)/2:]},
	}
	prep := func() {
		u.Prepare(list.Links, ps.Len(), n, T)
		fu.PrepareBlocks(blocks, T)
	}
	prep()
	if avg := testing.AllocsPerRun(10, prep); avg != 0 {
		t.Errorf("warm Prepare allocates %g times per run, want 0", avg)
	}
}
