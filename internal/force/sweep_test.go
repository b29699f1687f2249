package force

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
)

// integratePasses is the position update as it stood before the sweep,
// kept written out as the differential oracle: component-major, each
// component a kick-drift-fold pass that calls math.Mod on every
// coordinate, the boundary handling of geom.Box.Wrap inline.
func integratePasses(ps *particle.Store, lo, hi int, dt float64, box geom.Box, mode WrapMode) {
	reflect := box.BC == geom.Reflecting
	wrapNow := mode == WrapGlobal || reflect
	for k := 0; k < ps.D; k++ {
		pos := ps.Pos[k][lo:hi]
		vel := ps.Vel[k][lo:hi]
		frc := ps.Frc[k][lo:hi]
		l := box.Len[k]
		switch {
		case !wrapNow:
			for i := range pos {
				vel[i] += frc[i] * dt
				pos[i] += vel[i] * dt
			}
		case reflect:
			period := 2 * l
			for i := range pos {
				vel[i] += frc[i] * dt
				x := pos[i] + vel[i]*dt
				x = math.Mod(x, period)
				if x < 0 {
					x += period
				}
				if x >= l {
					x = period - x
					vel[i] = -vel[i]
				}
				if x >= l {
					x = math.Nextafter(l, 0)
				}
				pos[i] = x
			}
		default:
			for i := range pos {
				vel[i] += frc[i] * dt
				x := pos[i] + vel[i]*dt
				x = math.Mod(x, l)
				if x < 0 {
					x += l
				}
				if x >= l {
					x -= l
				}
				pos[i] = x
			}
		}
	}
}

// rangeKinetic is KineticEnergy over [lo, hi): the same function on a
// view of the velocity slices.
func rangeKinetic(ps *particle.Store, lo, hi int) float64 {
	view := particle.Store{D: ps.D}
	for k := 0; k < ps.D; k++ {
		view.Vel[k] = ps.Vel[k][lo:hi]
	}
	return KineticEnergy(&view, hi-lo)
}

// plantEdgeCases overwrites the first particles of ps with the inputs
// the fold's fast path has to get right, component 0 carrying the
// case: a coordinate that lands a hair below zero (Mod hands back a
// value that rounds to l when l is added), one that lands on l
// exactly, -0.0 at rest, drifts of several box lengths both ways (an
// odd and an even number of reflections) and a particle that crosses
// the periodic seam away from its reference.
func plantEdgeCases(ps *particle.Store, box geom.Box, dt float64) int {
	l := box.Len[0]
	negZero := math.Copysign(0, -1)
	cases := []struct{ x, v, f float64 }{
		{0, -1e-17 / dt, 0},
		{math.Nextafter(l, 0), (l - math.Nextafter(l, 0)) / dt, 0},
		{negZero, negZero, negZero},
		{0.25 * l, 3.3 * l / dt, 0},
		{0.25 * l, 4.6 * l / dt, 0},
		{0.75 * l, -3.3 * l / dt, 0},
		{0.75 * l, -6.9 * l / dt, 0},
		{l - 1e-3, 2e-3 / dt, 0},
		{1e-3, -2e-3 / dt, 0},
	}
	for i, c := range cases {
		ps.Pos[0][i], ps.Vel[0][i], ps.Frc[0][i] = c.x, c.v, c.f
		for k := 1; k < ps.D; k++ {
			ps.Frc[k][i] = 0
		}
	}
	return len(cases)
}

// TestSweepBitIdenticalToPasses drives one system through the three
// passes the sweep replaces (the written-out integrate, KineticEnergy,
// MaxDisp2) and a copy through Sweep, split into T ranges, for 60
// steps with a fresh random force every step: positions, velocities,
// the maximum displacement and (per range) the kinetic energy must
// agree to the bit in every dimension, boundary condition, wrap mode
// and split. At T=1 the one range is the whole energy.
func TestSweepBitIdenticalToPasses(t *testing.T) {
	const n, steps, dt = 64, 60, 1e-3
	for d := 1; d <= 3; d++ {
		for _, bc := range []geom.Boundary{geom.Periodic, geom.Reflecting} {
			for _, mode := range []WrapMode{WrapGlobal, WrapDeferred} {
				for T := 1; T <= 3; T++ {
					name := fmt.Sprintf("d%d/%v/mode%d/T%d", d, bc, mode, T)
					t.Run(name, func(t *testing.T) {
						box := geom.Box{D: d, BC: bc}
						for k := 0; k < d; k++ {
							box.Len[k] = []float64{1.3, 0.7, 2.1}[k]
						}
						rng := rand.New(rand.NewSource(int64(100*d + 10*int(bc) + T)))
						want := particle.New(d, n)
						particle.FillUniformVel(want, n, box, 40, 0, rng)
						got := want.Clone()
						ref := want.SnapshotPos()
						for step := 0; step < steps; step++ {
							for k := 0; k < d; k++ {
								for i := 0; i < n; i++ {
									want.Frc[k][i] = 2e4 * (rng.Float64() - 0.5)
								}
							}
							if step%7 == 3 {
								plantEdgeCases(want, box, dt)
							}
							if step%10 == 0 {
								// A list rebuild: a new reference.
								for k := 0; k < d; k++ {
									copy(ref[k], want.Pos[k])
								}
							}
							for k := 0; k < d; k++ {
								copy(got.Pos[k], want.Pos[k])
								copy(got.Vel[k], want.Vel[k])
								copy(got.Frc[k], want.Frc[k])
							}

							integratePasses(want, 0, n, dt, box, mode)
							wantE := KineticEnergy(want, n)
							wantMax := want.MaxDisp2(&ref, n, box)

							gotMax := 0.0
							for th := 0; th < T; th++ {
								lo, hi := n*th/T, n*(th+1)/T
								e, m := Sweep(got, &ref, lo, hi, dt, box, mode, nil)
								if we := rangeKinetic(want, lo, hi); math.Float64bits(e) != math.Float64bits(we) {
									t.Fatalf("step %d range [%d,%d): ekin %.17g, passes %.17g", step, lo, hi, e, we)
								}
								if T == 1 && math.Float64bits(e) != math.Float64bits(wantE) {
									t.Fatalf("step %d: ekin %.17g, KineticEnergy %.17g", step, e, wantE)
								}
								gotMax = math.Max(gotMax, m)
							}
							if math.Float64bits(gotMax) != math.Float64bits(wantMax) {
								t.Fatalf("step %d: maxDisp2 %.17g, MaxDisp2 %.17g", step, gotMax, wantMax)
							}
							for k := 0; k < d; k++ {
								for i := 0; i < n; i++ {
									if math.Float64bits(got.Pos[k][i]) != math.Float64bits(want.Pos[k][i]) ||
										math.Float64bits(got.Vel[k][i]) != math.Float64bits(want.Vel[k][i]) {
										t.Fatalf("step %d particle %d component %d: sweep (%.17g, %.17g), passes (%.17g, %.17g)",
											step, i, k, got.Pos[k][i], got.Vel[k][i], want.Pos[k][i], want.Vel[k][i])
									}
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestSweepWithoutReference: a nil reference moves the particles the
// same way and reports no displacement, which is what IntegrateRange
// relies on.
func TestSweepWithoutReference(t *testing.T) {
	const n, dt = 40, 1e-3
	box := geom.NewBox(3, 1, geom.Periodic)
	rng := rand.New(rand.NewSource(9))
	want := particle.New(3, n)
	particle.FillUniformVel(want, n, box, 400, 0, rng)
	got := want.Clone()
	integratePasses(want, 0, n, dt, box, WrapGlobal)
	e, m := Sweep(got, nil, 0, n, dt, box, WrapGlobal, nil)
	if m != 0 {
		t.Errorf("maxDisp2 = %g without a reference, want 0", m)
	}
	if we := KineticEnergy(want, n); e != we {
		t.Errorf("ekin = %.17g, want %.17g", e, we)
	}
	for k := 0; k < 3; k++ {
		for i := 0; i < n; i++ {
			if got.Pos[k][i] != want.Pos[k][i] {
				t.Fatalf("particle %d component %d: %.17g, want %.17g", i, k, got.Pos[k][i], want.Pos[k][i])
			}
		}
	}
}
