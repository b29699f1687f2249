package shm

// Race-focused stress tests. These are correctness tests in a normal
// run, but their real purpose is `go test -race`: wide teams over
// small, dense systems so that nearly every particle sits on a
// thread-chunk boundary and the protection strategies are forced to
// synchronise concurrent force updates for real. Unprotected is
// deliberately absent — it is the paper's "what goes wrong" control
// and races by construction.

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"hybriddem/internal/cell"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
)

// raceRef computes the serial force/energy reference for a system
// built by buildForceSystem with nCore = n.
func raceRef(ps *particle.Store, list *cell.List, box geom.Box, sp force.Spring, n int) (*particle.Store, float64) {
	ref := ps.Clone()
	ref.ZeroForces()
	e := sp.Accumulate(ref, list.CoreLinks(), n, box, 1, nil)
	e += sp.Accumulate(ref, list.HaloLinks(), n, box, 0.5, nil)
	return ref, e
}

func TestRaceAllMethodsUnderContention(t *testing.T) {
	// Small n with T=8 means each chunk is ~15 links wide: a large
	// fraction of particles is shared between threads, so every
	// protected-update path runs hot. The updater is reused across
	// repetitions, as the drivers reuse it across iterations.
	const n, halo, T, reps = 120, 20, 8, 6
	ps, list, box, sp := buildForceSystem(29, n, halo, 2)
	ref, eref := raceRef(ps, list, box, sp, n)

	for _, m := range Methods {
		tm := NewTeam(T, Costs{})
		u := NewUpdater(m)
		u.Prepare(list.Links, ps.Len(), n, T)
		for r := 0; r < reps; r++ {
			work := ps.Clone()
			work.ZeroForces()
			e := u.Accumulate(tm, sp, work, list.Links, list.NCore, n, box)
			if math.Abs(e-eref) > 1e-9*math.Abs(eref) {
				t.Fatalf("%v rep %d: energy %g vs serial %g", m, r, e, eref)
			}
			for i := 0; i < n; i++ {
				if geom.Norm2(geom.Sub(work.FrcAt(i), ref.FrcAt(i), 2), 2) > 1e-18 {
					t.Fatalf("%v rep %d: force mismatch at particle %d", m, r, i)
				}
			}
		}
	}
}

func TestRaceFusedUnderContention(t *testing.T) {
	const n, halo, T, reps = 90, 15, 8, 6
	psA, listA, box, sp := buildForceSystem(31, n, halo, 2)
	psB, listB, _, _ := buildForceSystem(32, n, halo, 2)
	refA, eA := raceRef(psA, listA, box, sp, n)
	refB, eB := raceRef(psB, listB, box, sp, n)
	eref := eA + eB

	for _, m := range []Method{Atomic, SelectedAtomic} {
		for r := 0; r < reps; r++ {
			workA, workB := psA.Clone(), psB.Clone()
			workA.ZeroForces()
			workB.ZeroForces()
			fu := NewUpdater(m)
			fu.PrepareBlocks([]*BlockStore{
				{PS: workA, Links: listA.Links, NCoreLinks: listA.NCore, NCore: n},
				{PS: workB, Links: listB.Links, NCoreLinks: listB.NCore, NCore: n},
			}, T)
			tm := NewTeam(T, Costs{})
			e := fu.AccumulateBlocks(tm, sp, box, false)
			if math.Abs(e-eref) > 1e-9*math.Abs(eref) {
				t.Fatalf("fused %v rep %d: energy %g vs serial %g", m, r, e, eref)
			}
			for i := 0; i < n; i++ {
				if geom.Norm2(geom.Sub(workA.FrcAt(i), refA.FrcAt(i), 2), 2) > 1e-18 ||
					geom.Norm2(geom.Sub(workB.FrcAt(i), refB.FrcAt(i), 2), 2) > 1e-18 {
					t.Fatalf("fused %v rep %d: force mismatch at particle %d", m, r, i)
				}
			}
		}
	}
}

func TestRaceConcurrentTeamsAreIndependent(t *testing.T) {
	// Hybrid mode runs one team per MPI rank, all inside one process.
	// Run several teams truly concurrently, each over its own store,
	// to prove the strategies keep no hidden global state. One team
	// per method so the strategies also overlap with each other.
	const n, halo, T = 120, 20, 4
	var wg sync.WaitGroup
	for w, m := range Methods {
		wg.Add(1)
		go func(w int, m Method) {
			defer wg.Done()
			ps, list, box, sp := buildForceSystem(int64(40+w), n, halo, 2)
			ref, eref := raceRef(ps, list, box, sp, n)
			tm := NewTeam(T, Costs{})
			u := NewUpdater(m)
			u.Prepare(list.Links, ps.Len(), n, T)
			for r := 0; r < 4; r++ {
				work := ps.Clone()
				work.ZeroForces()
				e := u.Accumulate(tm, sp, work, list.Links, list.NCore, n, box)
				if math.Abs(e-eref) > 1e-9*math.Abs(eref) {
					t.Errorf("team %d (%v): energy %g vs %g", w, m, e, eref)
					return
				}
				for i := 0; i < n; i++ {
					if geom.Norm2(geom.Sub(work.FrcAt(i), ref.FrcAt(i), 2), 2) > 1e-18 {
						t.Errorf("team %d (%v): force mismatch at %d", w, m, i)
						return
					}
				}
			}
		}(w, m)
	}
	wg.Wait()
}

func TestRacePairForceHookConcurrent(t *testing.T) {
	// The fault-injection hook is read inside parallel regions; an
	// identity hook must neither race nor change the result.
	const n, halo, T = 120, 20, 8
	ps, list, box, sp := buildForceSystem(53, n, halo, 2)
	ref, eref := raceRef(ps, list, box, sp, n)

	PairForceHook = func(m Method, idI, idJ int32, fi geom.Vec) geom.Vec { return fi }
	defer func() { PairForceHook = nil }()

	for _, m := range Methods {
		tm := NewTeam(T, Costs{})
		u := NewUpdater(m)
		u.Prepare(list.Links, ps.Len(), n, T)
		work := ps.Clone()
		work.ZeroForces()
		e := u.Accumulate(tm, sp, work, list.Links, list.NCore, n, box)
		if math.Abs(e-eref) > 1e-9*math.Abs(eref) {
			t.Fatalf("%v with identity hook: energy %g vs %g", m, e, eref)
		}
		for i := 0; i < n; i++ {
			if geom.Norm2(geom.Sub(work.FrcAt(i), ref.FrcAt(i), 2), 2) > 1e-18 {
				t.Fatalf("%v with identity hook: force mismatch at %d", m, i)
			}
		}
	}
}

func TestRaceParallelForAndBarriers(t *testing.T) {
	// Pure runtime stress: tight ParallelFor/Barrier/Critical loops
	// with a shared accumulator guarded by Critical.
	const T, reps, n = 8, 50, 1000
	tm := NewTeam(T, Costs{})
	for r := 0; r < reps; r++ {
		total := 0
		tm.Region(func(th *Thread) {
			lo, hi := chunk(n, T, th.ID)
			local := 0
			for i := lo; i < hi; i++ {
				local += i
			}
			th.Barrier()
			tm.Critical(th, func() { total += local })
			th.Barrier()
		})
		if total != n*(n-1)/2 {
			t.Fatalf("rep %d: critical sum %d, want %d", r, total, n*(n-1)/2)
		}
	}
}

func TestRaceScheduleReuseAcrossIterations(t *testing.T) {
	// Re-binning between iterations (as core's drivers do) must be
	// safe against a reused updater and team: rebuild the link list
	// from moved positions each round and accumulate again.
	const n, halo, T, reps = 150, 0, 6, 5
	box := geom.NewBox(2, 1.0, geom.Periodic)
	ps := particle.New(2, n)
	rng := rand.New(rand.NewSource(61))
	particle.FillUniformVel(ps, n, box, 0.3, 0, rng)
	sp := force.Spring{Diameter: 0.09, K: 40, Damp: 0.5}
	const rc = 0.13

	tm := NewTeam(T, Costs{})
	u := NewUpdater(SelectedAtomic)
	for r := 0; r < reps; r++ {
		g := cell.NewGrid(2, geom.Vec{}, box.Len, rc, true)
		g.Bin(&ps.Pos, n, nil)
		list := g.BuildLinks(&ps.Pos, n, n, rc*rc, box, nil)
		ref, eref := raceRef(ps, list, box, sp, n)
		u.Prepare(list.Links, n, n, T)
		work := ps.Clone()
		work.ZeroForces()
		e := u.Accumulate(tm, sp, work, list.Links, list.NCore, n, box)
		if math.Abs(e-eref) > 1e-9*math.Abs(eref) {
			t.Fatalf("rep %d: energy %g vs %g", r, e, eref)
		}
		for i := 0; i < n; i++ {
			if geom.Norm2(geom.Sub(work.FrcAt(i), ref.FrcAt(i), 2), 2) > 1e-18 {
				t.Fatalf("rep %d: force mismatch at %d", r, i)
			}
		}
		// Drift the system so the next round bins differently.
		for i := 0; i < n; i++ {
			for k := 0; k < 2; k++ {
				ps.Pos[k][i] += 0.01 * ps.Vel[k][i]
			}
			p, _ := box.Wrap(ps.PosAt(i))
			ps.SetPos(i, p)
		}
	}
}
