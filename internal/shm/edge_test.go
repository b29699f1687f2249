package shm

import (
	"math"
	"testing"
)

func TestNewTeamPanicsOnZeroThreads(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("team of 0 accepted")
		}
	}()
	NewTeam(0, Costs{})
}

func TestNewUpdaterUnknownMethodPanicsOnUse(t *testing.T) {
	u := NewUpdater(Method(42))
	tm := NewTeam(1, Costs{})
	defer func() {
		if recover() == nil {
			t.Error("unknown method accepted")
		}
	}()
	ps, list, box, sp := buildForceSystem(1, 10, 0, 2)
	u.Prepare(list.Links, ps.Len(), 10, 1)
	u.Accumulate(tm, sp, ps, list.Links, list.NCore, 10, box)
}

func TestUpdaterConflictsGetter(t *testing.T) {
	ps, list, _, _ := buildForceSystem(3, 50, 0, 2)
	u := NewUpdater(SelectedAtomic)
	u.Prepare(list.Links, ps.Len(), 50, 2)
	if u.Conflicts() == nil {
		t.Error("selected-atomic should build a conflict table")
	}
	a := NewUpdater(Atomic)
	a.Prepare(list.Links, ps.Len(), 50, 2)
	if a.Conflicts() != nil {
		t.Error("atomic method should not build a conflict table")
	}
}

func TestUnprotectedSingleThreadMatches(t *testing.T) {
	// The ablation-only Unprotected method is exact with one thread.
	ps, list, box, sp := buildForceSystem(5, 200, 20, 2)
	ref := ps.Clone()
	ref.ZeroForces()
	e1 := sp.Accumulate(ref, list.CoreLinks(), 200, box, 1, nil)
	e1 += sp.Accumulate(ref, list.HaloLinks(), 200, box, 0.5, nil)

	tm := NewTeam(1, Costs{})
	u := NewUpdater(Unprotected)
	u.Prepare(list.Links, ps.Len(), 200, 1)
	work := ps.Clone()
	work.ZeroForces()
	e2 := u.Accumulate(tm, sp, work, list.Links, list.NCore, 200, box)
	if math.Abs(e1-e2) > 1e-12*math.Abs(e1) {
		t.Errorf("energies %g vs %g", e1, e2)
	}
	for i := 0; i < 200; i++ {
		if work.FrcAt(i) != ref.FrcAt(i) {
			t.Fatalf("force mismatch at %d", i)
		}
	}
	if tm.TC.AtomicsTaken != 0 {
		t.Error("unprotected method took locks")
	}
}

func TestCostsHaloWorkDefault(t *testing.T) {
	var c Costs
	if c.haloWork() != 1 {
		t.Error("zero HaloWork should mean 1")
	}
	c.HaloWork = 0.25
	if c.haloWork() != 0.25 {
		t.Error("HaloWork not honoured")
	}
}

func TestScaleWorkLeavesOverheadsAlone(t *testing.T) {
	c := Costs{
		ForkJoin: 1, Barrier: 2, Critical: 3,
		AtomicTaken: 4, ReductionWord: 5,
		PerLink: 6, PerContact: 7, PerUpdate: 8, PerParticle: 9,
	}
	s := c.ScaleWork(10, 100)
	if s.ForkJoin != 1 || s.Barrier != 2 || s.Critical != 3 {
		t.Error("per-event overheads were scaled")
	}
	if s.AtomicTaken != 400 {
		t.Errorf("atomic scale: %g", s.AtomicTaken)
	}
	if s.PerLink != 60 || s.PerContact != 70 || s.PerUpdate != 80 || s.PerParticle != 90 || s.ReductionWord != 50 {
		t.Errorf("work scale: %+v", s)
	}
}

func TestThreadComputeIgnoresNegative(t *testing.T) {
	tm := NewTeam(1, Costs{})
	tm.Region(func(th *Thread) {
		th.Compute(-1)
		if th.Clock() != 0 {
			t.Error("negative compute advanced thread clock")
		}
	})
	tm.Compute(-1)
	tm.SetClock(5)
	if tm.Clock() != 5 {
		t.Error("SetClock failed")
	}
}

func TestFusedPrepareMismatchPanics(t *testing.T) {
	ps, list, box, sp := buildForceSystem(7, 50, 0, 2)
	fu := NewFusedUpdater(SelectedAtomic)
	fu.Prepare([]FusedPiece{{PS: ps, Links: list.Links, NCoreLinks: list.NCore, NCore: 50}}, 2)
	tm := NewTeam(3, Costs{}) // wrong team size
	defer func() {
		if recover() == nil {
			t.Error("team-size mismatch accepted")
		}
	}()
	fu.Accumulate(tm, sp, box)
}
