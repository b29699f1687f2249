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

// fold is one sweep's boundary handling. A coordinate x with
// lo <= x < hi[k] is already where the boundary condition would put
// it; only one outside goes through slow. For a wrapping or
// reflecting box that interval is [0, l), where geom.Box.Fold is the
// identity (see there for why leaving the math.Mod out is exact). With
// the fold deferred the interval is the whole line.
type fold struct {
	box  geom.Box
	live bool // false: the fold is deferred until migration
	lo   float64
	hi   geom.Vec
	half geom.Vec // minimum-image threshold of the displacement
}

func newFold(box geom.Box, mode WrapMode) fold {
	inf := math.Inf(1)
	f := fold{box: box, lo: -inf, hi: geom.Vec{inf, inf, inf}, half: box.HalfLengths()}
	if box.BC == geom.Reflecting || mode == WrapGlobal {
		f.live, f.lo, f.hi = true, 0, box.Len
	}
	return f
}

// slow folds coordinate x of component k, which lies outside the fast
// interval, through geom.Box.Fold and returns it with the velocity
// component, negated after an odd number of reflections.
func (f *fold) slow(x, v float64, k int) (float64, float64) {
	if !f.live {
		return x, v // +Inf alone gets here, and stays
	}
	x, flip := f.box.Fold(x, k)
	if flip {
		v = -v
	}
	return x, v
}

// sweep3 is the three-dimensional sweep on component slices.
func sweep3(ps *particle.Store, ref *geom.Coords, lo, hi int, dt float64, f *fold) (ekin, maxd float64) {
	p0, p1, p2 := ps.Pos[0][lo:hi], ps.Pos[1][lo:hi], ps.Pos[2][lo:hi]
	v0, v1, v2 := ps.Vel[0][lo:hi], ps.Vel[1][lo:hi], ps.Vel[2][lo:hi]
	f0, f1, f2 := ps.Frc[0][lo:hi], ps.Frc[1][lo:hi], ps.Frc[2][lo:hi]
	r0, r1, r2 := ref[0][lo:hi], ref[1][lo:hi], ref[2][lo:hi]
	flo := f.lo
	hi0, hi1, hi2 := f.hi[0], f.hi[1], f.hi[2]
	l0, l1, l2 := f.box.Len[0], f.box.Len[1], f.box.Len[2]
	h0, h1, h2 := f.half[0], f.half[1], f.half[2]
	for i := range p0 {
		vx := v0[i] + f0[i]*dt
		x := p0[i] + vx*dt
		if x < flo || x >= hi0 {
			x, vx = f.slow(x, vx, 0)
		}
		v0[i], p0[i] = vx, x
		vy := v1[i] + f1[i]*dt
		y := p1[i] + vy*dt
		if y < flo || y >= hi1 {
			y, vy = f.slow(y, vy, 1)
		}
		v1[i], p1[i] = vy, y
		vz := v2[i] + f2[i]*dt
		z := p2[i] + vz*dt
		if z < flo || z >= hi2 {
			z, vz = f.slow(z, vz, 2)
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
	l0, l1 := f.box.Len[0], f.box.Len[1]
	h0, h1 := f.half[0], f.half[1]
	for i := range p0 {
		vx := v0[i] + f0[i]*dt
		x := p0[i] + vx*dt
		if x < flo || x >= hi0 {
			x, vx = f.slow(x, vx, 0)
		}
		v0[i], p0[i] = vx, x
		vy := v1[i] + f1[i]*dt
		y := p1[i] + vy*dt
		if y < flo || y >= hi1 {
			y, vy = f.slow(y, vy, 1)
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
				x, v = f.slow(x, v, k)
			}
			ps.Vel[k][i], ps.Pos[k][i] = v, x
			vv += v * v
			dx := x - ref[k][i]
			if dx > f.half[k] {
				dx -= f.box.Len[k]
			} else if dx < -f.half[k] {
				dx += f.box.Len[k]
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
