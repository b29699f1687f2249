package force

import (
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
	"hybriddem/internal/trace"
)

// WrapMode controls how the integrator applies the global boundary
// condition after moving particles.
type WrapMode int

const (
	// WrapGlobal applies the full boundary condition every step: wrap
	// for periodic boxes, reflect for walled boxes. Serial and
	// shared-memory runs use this.
	WrapGlobal WrapMode = iota
	// WrapDeferred applies reflecting walls immediately (reflection is
	// a local operation) but leaves periodic coordinates unwrapped;
	// decomposed runs wrap at migration time so that halo shifts and
	// displacement tracking stay consistent between list rebuilds.
	WrapDeferred
)

// Integrate advances the first nCore particles by one kick-drift step
// of size dt (particle mass 1): v += F dt; x += v dt. Interpreting the
// velocities as half-step values this is the leapfrog scheme, the
// "standard second-order accurate" update of Section 4.1.
func Integrate(ps *particle.Store, nCore int, dt float64, box geom.Box, mode WrapMode, tc *trace.Counters) {
	IntegrateRange(ps, 0, nCore, dt, box, mode, tc)
}

// IntegrateRange is Integrate restricted to particles [lo, hi): the
// sweep without a reference, its energy and displacement dropped. The
// step loops call Sweep; this remains for callers that only move
// particles (examples, measurements, the benchmark's reference loops).
func IntegrateRange(ps *particle.Store, lo, hi int, dt float64, box geom.Box, mode WrapMode, tc *trace.Counters) {
	Sweep(ps, nil, lo, hi, dt, box, mode, tc)
}

// ApplyGravity adds a constant acceleration g along axis (mass 1) to
// the first nCore force accumulators.  The sand-pile example deposits
// grains under gravity onto a reflecting floor.
func ApplyGravity(ps *particle.Store, nCore int, axis int, g float64) {
	frc := ps.Frc[axis][:nCore]
	for i := range frc {
		frc[i] += g
	}
}

// KineticEnergy returns the total kinetic energy of the first n
// particles (mass 1). The step loops get this sum from Sweep, which
// adds the same terms in the same order while it moves the particles;
// this walk serves measurements and is the oracle the sweep is tested
// against. The sum stays particle-major — each particle's
// speed squared is assembled across components before entering the
// total, in the exact association of Norm2 — so the value is
// bit-identical to the array-of-vectors formulation.
func KineticEnergy(ps *particle.Store, n int) float64 {
	e := 0.0
	switch ps.D {
	case 2:
		v0, v1 := ps.Vel[0][:n], ps.Vel[1][:n]
		for i := 0; i < n; i++ {
			e += 0.5 * (v0[i]*v0[i] + v1[i]*v1[i])
		}
	case 3:
		v0, v1, v2 := ps.Vel[0][:n], ps.Vel[1][:n], ps.Vel[2][:n]
		for i := 0; i < n; i++ {
			e += 0.5 * (v0[i]*v0[i] + v1[i]*v1[i] + v2[i]*v2[i])
		}
	default:
		for i := 0; i < n; i++ {
			e += 0.5 * geom.Norm2(ps.Vel.At(i, ps.D), ps.D)
		}
	}
	return e
}

// Momentum returns the total momentum vector of the first n particles.
// Each component accumulates independently in ascending particle
// order, matching the per-component sums of the Vec formulation.
func Momentum(ps *particle.Store, n int) geom.Vec {
	var m geom.Vec
	for k := 0; k < ps.D; k++ {
		vel := ps.Vel[k][:n]
		s := 0.0
		for i := range vel {
			s += vel[i]
		}
		m[k] = s
	}
	return m
}
