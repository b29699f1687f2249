package shm

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hybriddem/internal/cell"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
)

// twoParticleSystem builds the minimal deterministic system: two core
// particles within the cutoff joined by one link.
func twoParticleSystem() (*particle.Store, []cell.Link, geom.Box, force.Spring) {
	box := geom.NewBox(2, 1.0, geom.Reflecting)
	ps := particle.New(2, 2)
	ps.Append(geom.Vec{0.50, 0.50}, geom.Vec{}, 0)
	ps.Append(geom.Vec{0.55, 0.50}, geom.Vec{}, 1)
	sp := force.Spring{Diameter: 0.09, K: 40, Damp: 0.5}
	return ps, []cell.Link{{I: 0, J: 1}}, box, sp
}

func expectPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		e := recover()
		if e == nil {
			t.Fatalf("no panic; want one containing %q", substr)
		}
		if s, ok := e.(string); !ok || !strings.Contains(s, substr) {
			t.Fatalf("panic %v; want one containing %q", e, substr)
		}
	}()
	fn()
}

// TestAccumulateTeamMismatchPanics is the regression test for the
// silent conflict-table mismatch: Prepare built the selected-atomic
// table for one team size, and Accumulate trusted whatever team it was
// handed, racing unprotected on particles the table thought private.
// It must refuse loudly instead.
func TestAccumulateTeamMismatchPanics(t *testing.T) {
	ps, links, box, sp := twoParticleSystem()
	u := NewUpdater(SelectedAtomic)
	u.Prepare(links, ps.Len(), 2, 2)
	tm := NewTeam(3, Costs{})
	defer tm.Close()
	expectPanic(t, "prepared for T=2", func() {
		u.Accumulate(tm, sp, ps, links, len(links), 2, box)
	})
}

// TestAccumulateLinkCountMismatchPanics: running over a different link
// list than Prepare saw redistributes links across threads and
// invalidates the conflict table; it must panic, not race.
func TestAccumulateLinkCountMismatchPanics(t *testing.T) {
	ps, links, box, sp := twoParticleSystem()
	u := NewUpdater(SelectedAtomic)
	u.Prepare(links, ps.Len(), 2, 1)
	tm := NewTeam(1, Costs{})
	defer tm.Close()
	grown := append(append([]cell.Link(nil), links...), cell.Link{I: 0, J: 1})
	expectPanic(t, "over 1 links", func() {
		u.Accumulate(tm, sp, ps, grown, len(grown), 2, box)
	})
}

// TestPrepareClearsStaleLocks is the regression test for the reused
// lock array: an abandoned region (sibling panic while a thread held a
// per-particle spinlock) leaves a non-zero lock word behind, and
// Prepare used to reslice the array without zeroing it, deadlocking
// the first lockAdd of the next run.
func TestPrepareClearsStaleLocks(t *testing.T) {
	ps, links, box, sp := twoParticleSystem()
	u := NewUpdater(Atomic)
	u.Prepare(links, ps.Len(), 2, 1)
	// Simulate the abandoned region: particle 0's spinlock left held.
	u.locks[0][links[0].I] = 1
	u.Prepare(links, ps.Len(), 2, 1)

	tm := NewTeam(1, Costs{})
	defer tm.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		ps.ZeroForces()
		u.Accumulate(tm, sp, ps, links, len(links), 2, box)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Accumulate deadlocked on a stale per-particle lock Prepare failed to clear")
	}
}

// TestRegionAbortThenReuse: a panicked region aborts the barrier; the
// team must still be usable for subsequent regions (the driver's
// recovery path re-Prepares and runs on).
func TestRegionAbortThenReuse(t *testing.T) {
	tm := NewTeam(3, Costs{})
	defer tm.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		tm.Region(func(th *Thread) {
			if th.ID == 1 {
				panic("boom")
			}
			th.Barrier()
		})
	}()
	var mask int64
	tm.Region(func(th *Thread) {
		atomic.AddInt64(&mask, 1<<uint(th.ID))
	})
	if mask != 7 {
		t.Fatalf("post-abort region ran thread mask %b, want 111", mask)
	}
}

// TestClosedTeamPanics: running a region on a closed team must fail
// loudly rather than hang on released workers.
func TestClosedTeamPanics(t *testing.T) {
	tm := NewTeam(2, Costs{})
	tm.Region(func(th *Thread) {})
	tm.Close()
	expectPanic(t, "closed team", func() {
		tm.Region(func(th *Thread) {})
	})
}
