package force

import (
	"math"

	"hybriddem/internal/cell"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
	"hybriddem/internal/trace"
)

// F32Scratch holds the reusable single-precision mirrors of the
// particle arrays for AccumulateF32. One scratch per simulation; the
// conversion buffers are resized on demand and reused across steps, so
// the fast path allocates only when the particle count grows.
type F32Scratch struct {
	pos [geom.MaxD][]float32
	vel [geom.MaxD][]float32
}

// prepare refreshes the float32 mirrors from the store. Velocities
// convert only when the force law is damped — the undamped spring
// never reads them.
func (sc *F32Scratch) prepare(ps *particle.Store, withVel bool) {
	n := ps.Len()
	for k := 0; k < ps.D; k++ {
		if cap(sc.pos[k]) < n {
			sc.pos[k] = make([]float32, n)
		}
		sc.pos[k] = sc.pos[k][:n]
		src := ps.Pos[k][:n]
		dst := sc.pos[k]
		for i := range src {
			dst[i] = float32(src[i])
		}
		if withVel {
			if cap(sc.vel[k]) < n {
				sc.vel[k] = make([]float32, n)
			}
			sc.vel[k] = sc.vel[k][:n]
			vsrc := ps.Vel[k][:n]
			vdst := sc.vel[k]
			for i := range vsrc {
				vdst[i] = float32(vsrc[i])
			}
		}
	}
}

// sqrt32 is a single-precision square root; the compiler recognises
// the float32(math.Sqrt(float64(x))) pattern and emits the hardware
// SQRTSS instruction, so no library call survives in the loop.
func sqrt32(x float32) float32 { return float32(math.Sqrt(float64(x))) }

// AccumulateF32 is the single-precision fast path of Accumulate: the
// pair geometry — separations, minimum image, distance, overlap,
// force magnitude — evaluates in float32 on converted position (and,
// when damped, velocity) mirrors, while the force and energy
// accumulators stay float64 so the sums do not lose the benefit of
// many-term cancellation. The trajectory it produces is NOT
// bit-identical to the float64 kernel; verify.CompareApprox bounds
// the drift. Counter accounting matches Accumulate exactly. Bond
// tables are not supported (core.Config.Validate rejects the
// combination).
func (s Spring) AccumulateF32(ps *particle.Store, links []cell.Link, nCore int, box geom.Box, energyScale float64, sc *F32Scratch, tc *trace.Counters) float64 {
	if s.Bonds != nil || (ps.D != 2 && ps.D != 3) {
		return s.Accumulate(ps, links, nCore, box, energyScale, tc)
	}
	damp := s.Damp > 0
	sc.prepare(ps, damp)
	var epot float64
	var distSum, contacts int64
	switch ps.D {
	case 2:
		epot, contacts, distSum = s.accumulateF32d2(ps, links, nCore, box, sc)
	case 3:
		epot, contacts, distSum = s.accumulateF32d3(ps, links, nCore, box, sc)
	}
	if tc != nil {
		n := int64(len(links))
		tc.ForceEvals += n
		tc.LinkVisits += n
		tc.Contacts += contacts
		tc.ForceUpdates += 2 * n
		tc.LinkIndexDistSum += distSum
		tc.LinkIndexDistN += n
	}
	return epot * energyScale
}

// halfLengths32 is geom.Box.HalfLengths in single precision (halving
// commutes with the rounding, so the order of the two is immaterial).
func halfLengths32(box geom.Box) (h [geom.MaxD]float32) {
	for k, v := range box.HalfLengths() {
		h[k] = float32(v)
	}
	return h
}

func (s Spring) accumulateF32d2(ps *particle.Store, links []cell.Link, nCore int, box geom.Box, sc *F32Scratch) (epot float64, contacts, distSum int64) {
	n := ps.Len()
	x0, x1 := sc.pos[0][:n], sc.pos[1][:n]
	f0, f1 := ps.Frc[0][:n], ps.Frc[1][:n]
	h := halfLengths32(box)
	l0, l1 := float32(box.Len[0]), float32(box.Len[1])
	h0, h1 := h[0], h[1]
	diam := float32(s.Diameter)
	diam2 := diam * diam
	k32 := float32(s.K)
	hertz, damp := s.Hertz, float32(s.Damp)
	var v0, v1 []float32
	if damp > 0 {
		v0, v1 = sc.vel[0][:n], sc.vel[1][:n]
	}
	nc := int32(nCore)
	for _, l := range links {
		i, j := l.I, l.J
		di := int64(i) - int64(j)
		if di < 0 {
			di = -di
		}
		distSum += di
		dx := x0[j] - x0[i]
		if dx > h0 {
			dx -= l0
		} else if dx < -h0 {
			dx += l0
		}
		dy := x1[j] - x1[i]
		if dy > h1 {
			dy -= l1
		} else if dy < -h1 {
			dy += l1
		}
		r2 := dx*dx + dy*dy
		if r2 >= diam2 || r2 == 0 {
			continue
		}
		contacts++
		r := sqrt32(r2)
		inv := 1 / r
		overlap := diam - r
		var mag, epair float32
		if hertz {
			hh := overlap * sqrt32(overlap)
			mag = k32 * hh
			epair = 0.4 * k32 * hh * overlap
		} else {
			mag = k32 * overlap
			epair = 0.5 * k32 * overlap * overlap
		}
		if damp > 0 {
			vn := ((v0[j]-v0[i])*dx + (v1[j]-v1[i])*dy) * inv
			mag -= damp * vn
		}
		epot += float64(epair)
		fx := float64(-mag * dx * inv)
		fy := float64(-mag * dy * inv)
		f0[i] += fx
		f1[i] += fy
		if j < nc {
			f0[j] -= fx
			f1[j] -= fy
		}
	}
	return epot, contacts, distSum
}

func (s Spring) accumulateF32d3(ps *particle.Store, links []cell.Link, nCore int, box geom.Box, sc *F32Scratch) (epot float64, contacts, distSum int64) {
	n := ps.Len()
	x0, x1, x2 := sc.pos[0][:n], sc.pos[1][:n], sc.pos[2][:n]
	f0, f1, f2 := ps.Frc[0][:n], ps.Frc[1][:n], ps.Frc[2][:n]
	h := halfLengths32(box)
	l0, l1, l2 := float32(box.Len[0]), float32(box.Len[1]), float32(box.Len[2])
	h0, h1, h2 := h[0], h[1], h[2]
	diam := float32(s.Diameter)
	diam2 := diam * diam
	k32 := float32(s.K)
	hertz, damp := s.Hertz, float32(s.Damp)
	var v0, v1, v2 []float32
	if damp > 0 {
		v0, v1, v2 = sc.vel[0][:n], sc.vel[1][:n], sc.vel[2][:n]
	}
	nc := int32(nCore)
	for _, l := range links {
		i, j := l.I, l.J
		di := int64(i) - int64(j)
		if di < 0 {
			di = -di
		}
		distSum += di
		dx := x0[j] - x0[i]
		if dx > h0 {
			dx -= l0
		} else if dx < -h0 {
			dx += l0
		}
		dy := x1[j] - x1[i]
		if dy > h1 {
			dy -= l1
		} else if dy < -h1 {
			dy += l1
		}
		dz := x2[j] - x2[i]
		if dz > h2 {
			dz -= l2
		} else if dz < -h2 {
			dz += l2
		}
		r2 := dx*dx + dy*dy + dz*dz
		if r2 >= diam2 || r2 == 0 {
			continue
		}
		contacts++
		r := sqrt32(r2)
		inv := 1 / r
		overlap := diam - r
		var mag, epair float32
		if hertz {
			hh := overlap * sqrt32(overlap)
			mag = k32 * hh
			epair = 0.4 * k32 * hh * overlap
		} else {
			mag = k32 * overlap
			epair = 0.5 * k32 * overlap * overlap
		}
		if damp > 0 {
			vn := ((v0[j]-v0[i])*dx + (v1[j]-v1[i])*dy + (v2[j]-v2[i])*dz) * inv
			mag -= damp * vn
		}
		epot += float64(epair)
		fx := float64(-mag * dx * inv)
		fy := float64(-mag * dy * inv)
		fz := float64(-mag * dz * inv)
		f0[i] += fx
		f1[i] += fy
		f2[i] += fz
		if j < nc {
			f0[j] -= fx
			f1[j] -= fy
			f2[j] -= fz
		}
	}
	return epot, contacts, distSum
}
