package force

import (
	"math"

	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
	"hybriddem/internal/trace"
)

// Sweep is the particle half of a step in one walk over particles
// [lo, hi): kick (v += F dt), drift (x += v dt), fold the boundary as
// mode asks, add the particle's 0.5·|v|² to the kinetic energy and
// take its squared displacement from ref, the positions the link list
// was built on. It returns the energy of the range, summed in
// ascending particle order from zero exactly as KineticEnergy sums,
// and the largest squared displacement, measured exactly as
// particle.Store.MaxDisp2 measures it (minimum image in a periodic
// box). A nil ref skips the displacement and returns zero for it.
//
// The three passes it replaces each streamed 3·D arrays that do not
// fit in cache; per particle the sweep does the same arithmetic on the
// same operands in the same order, so positions, velocities, energy
// and maximum are theirs bit for bit (TestSweepBitIdenticalToPasses).
// Every step loop of internal/core drives its particles through here;
// the thread modes split [0, n) over the team and reduce the pairs.
func Sweep(ps *particle.Store, ref *geom.Coords, lo, hi int, dt float64, box geom.Box, mode WrapMode, tc *trace.Counters) (ekin, maxDisp2 float64) {
	if ref == nil {
		// A particle that is its own reference has not moved: the loops
		// read the reference after storing the position.
		ref = &ps.Pos
	}
	f := newFold(box, mode)
	switch ps.D {
	case 2:
		ekin, maxDisp2 = sweep2(ps, ref, lo, hi, dt, &f)
	case 3:
		ekin, maxDisp2 = sweep3(ps, ref, lo, hi, dt, &f)
	default:
		ekin, maxDisp2 = sweepN(ps, ref, lo, hi, dt, &f)
	}
	if tc != nil {
		tc.PosUpdates += int64(hi - lo)
	}
	return ekin, maxDisp2
}

// foldKind is what happens to a coordinate that leaves [0, l).
type foldKind int

const (
	foldNone     foldKind = iota // deferred periodic wrap: nothing, until migration
	foldPeriodic                 // wrap modulo l
	foldReflect                  // mirror at the walls, negating the velocity
)

// fold is one sweep's boundary handling. A coordinate x with
// lo <= x < hi[k] is already where the boundary condition would put
// it; only one outside goes through slow. For a wrapping or
// reflecting box that interval is [0, l): math.Mod(x, m) returns x bit
// for bit whenever |x| < m, and both l (periodic) and 2l (the
// reflecting period) exceed every x in it, so neither of Wrap's
// corrections after the Mod fires either — leaving the Mod out is
// exact. That includes -0, which compares inside the interval and
// which Mod hands back as -0; a NaN stays a NaN either way. With the
// fold deferred the interval is the whole line.
type fold struct {
	kind foldKind
	lo   float64
	hi   geom.Vec
	edge geom.Vec // box length per component
	half geom.Vec // minimum-image threshold of the displacement
}

func newFold(box geom.Box, mode WrapMode) fold {
	inf := math.Inf(1)
	f := fold{kind: foldNone, lo: -inf, hi: geom.Vec{inf, inf, inf}, edge: box.Len, half: box.HalfLengths()}
	switch {
	case box.BC == geom.Reflecting:
		f.kind = foldReflect
	case mode == WrapGlobal:
		f.kind = foldPeriodic
	}
	if f.kind != foldNone {
		f.lo, f.hi = 0, box.Len
	}
	return f
}

// slow folds a coordinate that lies outside the fast interval, with
// geom.Box.Wrap's arithmetic, and returns it with the velocity
// component, negated after an odd number of reflections.
func (f *fold) slow(x, v, l float64) (float64, float64) {
	switch f.kind {
	case foldPeriodic:
		x = math.Mod(x, l)
		if x < 0 {
			x += l
		}
		// math.Mod can return exactly l for x slightly below 0 due to
		// rounding; fold once more to stay half-open.
		if x >= l {
			x -= l
		}
	case foldReflect:
		// Fold into [0, 2l) with period 2l, then reflect the upper
		// half; an odd number of reflections negates the velocity.
		period := 2 * l
		x = math.Mod(x, period)
		if x < 0 {
			x += period
		}
		if x >= l {
			x = period - x
			v = -v
		}
		// Guard against x == l from rounding at the fold point.
		if x >= l {
			x = math.Nextafter(l, 0)
		}
	}
	return x, v // foldNone: +Inf alone gets here, and stays
}

// sweep3 is the three-dimensional sweep on component slices.
func sweep3(ps *particle.Store, ref *geom.Coords, lo, hi int, dt float64, f *fold) (ekin, maxd float64) {
	p0, p1, p2 := ps.Pos[0][lo:hi], ps.Pos[1][lo:hi], ps.Pos[2][lo:hi]
	v0, v1, v2 := ps.Vel[0][lo:hi], ps.Vel[1][lo:hi], ps.Vel[2][lo:hi]
	f0, f1, f2 := ps.Frc[0][lo:hi], ps.Frc[1][lo:hi], ps.Frc[2][lo:hi]
	r0, r1, r2 := ref[0][lo:hi], ref[1][lo:hi], ref[2][lo:hi]
	flo := f.lo
	hi0, hi1, hi2 := f.hi[0], f.hi[1], f.hi[2]
	l0, l1, l2 := f.edge[0], f.edge[1], f.edge[2]
	h0, h1, h2 := f.half[0], f.half[1], f.half[2]
	for i := range p0 {
		vx := v0[i] + f0[i]*dt
		x := p0[i] + vx*dt
		if x < flo || x >= hi0 {
			x, vx = f.slow(x, vx, l0)
		}
		v0[i], p0[i] = vx, x
		vy := v1[i] + f1[i]*dt
		y := p1[i] + vy*dt
		if y < flo || y >= hi1 {
			y, vy = f.slow(y, vy, l1)
		}
		v1[i], p1[i] = vy, y
		vz := v2[i] + f2[i]*dt
		z := p2[i] + vz*dt
		if z < flo || z >= hi2 {
			z, vz = f.slow(z, vz, l2)
		}
		v2[i], p2[i] = vz, z

		ekin += 0.5 * (vx*vx + vy*vy + vz*vz)

		dx := x - r0[i]
		if dx > h0 {
			dx -= l0
		} else if dx < -h0 {
			dx += l0
		}
		dy := y - r1[i]
		if dy > h1 {
			dy -= l1
		} else if dy < -h1 {
			dy += l1
		}
		dz := z - r2[i]
		if dz > h2 {
			dz -= l2
		} else if dz < -h2 {
			dz += l2
		}
		if d2 := dx*dx + dy*dy + dz*dz; d2 > maxd {
			maxd = d2
		}
	}
	return ekin, maxd
}

// sweep2 is the two-dimensional sweep on component slices.
func sweep2(ps *particle.Store, ref *geom.Coords, lo, hi int, dt float64, f *fold) (ekin, maxd float64) {
	p0, p1 := ps.Pos[0][lo:hi], ps.Pos[1][lo:hi]
	v0, v1 := ps.Vel[0][lo:hi], ps.Vel[1][lo:hi]
	f0, f1 := ps.Frc[0][lo:hi], ps.Frc[1][lo:hi]
	r0, r1 := ref[0][lo:hi], ref[1][lo:hi]
	flo := f.lo
	hi0, hi1 := f.hi[0], f.hi[1]
	l0, l1 := f.edge[0], f.edge[1]
	h0, h1 := f.half[0], f.half[1]
	for i := range p0 {
		vx := v0[i] + f0[i]*dt
		x := p0[i] + vx*dt
		if x < flo || x >= hi0 {
			x, vx = f.slow(x, vx, l0)
		}
		v0[i], p0[i] = vx, x
		vy := v1[i] + f1[i]*dt
		y := p1[i] + vy*dt
		if y < flo || y >= hi1 {
			y, vy = f.slow(y, vy, l1)
		}
		v1[i], p1[i] = vy, y

		ekin += 0.5 * (vx*vx + vy*vy)

		dx := x - r0[i]
		if dx > h0 {
			dx -= l0
		} else if dx < -h0 {
			dx += l0
		}
		dy := y - r1[i]
		if dy > h1 {
			dy -= l1
		} else if dy < -h1 {
			dy += l1
		}
		if d2 := dx*dx + dy*dy; d2 > maxd {
			maxd = d2
		}
	}
	return ekin, maxd
}

// sweepN is the sweep for any other dimensionality, components in the
// inner loop; |v|² and the displacement assemble per particle in
// component order, as geom.Norm2 and particle.Store.MaxDisp2 assemble
// them.
func sweepN(ps *particle.Store, ref *geom.Coords, lo, hi int, dt float64, f *fold) (ekin, maxd float64) {
	for i := lo; i < hi; i++ {
		vv, d2 := 0.0, 0.0
		for k := 0; k < ps.D; k++ {
			v := ps.Vel[k][i] + ps.Frc[k][i]*dt
			x := ps.Pos[k][i] + v*dt
			if x < f.lo || x >= f.hi[k] {
				x, v = f.slow(x, v, f.edge[k])
			}
			ps.Vel[k][i], ps.Pos[k][i] = v, x
			vv += v * v
			dx := x - ref[k][i]
			if dx > f.half[k] {
				dx -= f.edge[k]
			} else if dx < -f.half[k] {
				dx += f.edge[k]
			}
			d2 += dx * dx
		}
		ekin += 0.5 * vv
		if d2 > maxd {
			maxd = d2
		}
	}
	return ekin, maxd
}
