package shm

import (
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
)

// The kernel entry points below run every step, so their region bodies
// are reused structs stored on the Team rather than closures: filling
// a struct field and passing its pointer through the RegionBody
// interface performs no allocation.

// sweepPartial is one thread's share of a particle sweep's reduction:
// the kinetic energy of its ranges and the largest squared displacement
// in them. Each sits on a cache line of its own; the master folds them
// in thread order after the join, so the energy is the same sum of the
// same partials whichever thread finishes first.
type sweepPartial struct {
	ekin, maxDisp2 float64
	_              [48]byte
}

// add folds one range's result into the partial.
func (p *sweepPartial) add(ekin, maxDisp2 float64) {
	p.ekin += ekin
	p.maxDisp2 = max(p.maxDisp2, maxDisp2) // the builtin carries a NaN
}

// sweepResult reduces the thread partials of the region just joined.
// With one thread it is that thread's sum unchanged (0 + x is x).
func (tm *Team) sweepResult() (ekin, maxDisp2 float64) {
	var r sweepPartial
	for t := range tm.kPart {
		r.add(tm.kPart[t].ekin, tm.kPart[t].maxDisp2)
	}
	return r.ekin, r.maxDisp2
}

type integrateBody struct {
	ps    *particle.Store
	ref   *geom.Coords
	nCore int
	dt    float64
	box   geom.Box
	mode  force.WrapMode
}

func (b *integrateBody) RunThread(th *Thread) {
	tm := th.team
	lo, hi := chunk(b.nCore, tm.T, th.ID)
	var p sweepPartial
	p.add(force.Sweep(b.ps, b.ref, lo, hi, b.dt, b.box, b.mode, &th.TC))
	tm.kPart[th.ID] = p
	th.Compute(float64(hi-lo) * tm.Costs.PerParticle)
}

// SweepParallel runs force.Sweep over the first nCore particles with a
// statically scheduled parallel loop ("the update of positions is
// parallelised over particles"): each thread owns a disjoint chunk, so
// there are no inter-thread dependencies, and the kinetic energy and
// the rebuild criterion come out of the same region instead of two
// walks by the master while the team is parked. It returns the kinetic
// energy — the thread partials summed in thread order, a function of
// (nCore, T) alone — and the largest squared displacement from ref
// (zero when ref is nil).
func SweepParallel(tm *Team, ps *particle.Store, ref *geom.Coords, nCore int, dt float64, box geom.Box, mode force.WrapMode) (ekin, maxDisp2 float64) {
	tm.kInteg = integrateBody{ps: ps, ref: ref, nCore: nCore, dt: dt, box: box, mode: mode}
	tm.RunRegion(&tm.kInteg)
	return tm.sweepResult()
}

// IntegrateParallel advances the first nCore particles by one step:
// SweepParallel without a reference, its results dropped.
func IntegrateParallel(tm *Team, ps *particle.Store, nCore int, dt float64, box geom.Box, mode force.WrapMode) {
	SweepParallel(tm, ps, nil, nCore, dt, box, mode)
}

type zeroForcesBody struct {
	ps *particle.Store
	n  int
}

func (b *zeroForcesBody) RunThread(th *Thread) {
	tm := th.team
	lo, hi := chunk(b.n, tm.T, th.ID)
	for k := 0; k < b.ps.D; k++ {
		frc := b.ps.Frc[k][lo:hi]
		for i := range frc {
			frc[i] = 0
		}
	}
	th.Compute(float64(hi-lo) * tm.Costs.PerParticle / 4)
}

// ZeroForcesParallel clears the force accumulators of the first n
// particles in parallel; one of the "simplest loops" the paper fuses
// into larger parallel regions.
func ZeroForcesParallel(tm *Team, ps *particle.Store, n int) {
	tm.kZero = zeroForcesBody{ps: ps, n: n}
	tm.RunRegion(&tm.kZero)
}
