package force

import (
	"math"

	"hybriddem/internal/cell"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
)

// onePass2 and onePass3 are the contact kernels as they stood before
// the two-pass batch: one loop that tests every link's distance with a
// branch and sums the |I-J| index distance as it goes. They are the
// reference the batched kernels must equal bit for bit, and the
// denominator of the pair kernel and link build benchmark gates.
func (s Spring) onePass2(dst *Sink, ps *particle.Store, links []cell.Link, nCore int, box geom.Box, epot, scale float64) (float64, int64, int64) {
	n := ps.Len()
	x0, x1 := ps.Pos[0][:n], ps.Pos[1][:n]
	v0, v1 := ps.Vel[0][:n], ps.Vel[1][:n]
	f0, f1 := dst.Frc[0][:n], dst.Frc[1][:n]
	h := box.HalfLengths()
	l0, l1 := box.Len[0], box.Len[1]
	h0, h1 := h[0], h[1]
	diam2 := s.Diameter * s.Diameter
	hertz, damp := s.Hertz, s.Damp
	ke := s.energyCoeff(scale)
	nc := int32(nCore)
	var contacts, distSum int64
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
		r := math.Sqrt(r2)
		inv := 1.0 / r
		overlap := s.Diameter - r
		var mag, epair float64
		if hertz {
			hh := overlap * math.Sqrt(overlap)
			mag = s.K * hh
			epair = ke * hh * overlap
		} else {
			mag = s.K * overlap
			epair = ke * overlap * overlap
		}
		if damp > 0 {
			vn := ((v0[j]-v0[i])*dx + (v1[j]-v1[i])*dy) * inv
			mag -= damp * vn
		}
		epot += epair
		fx := -mag * dx * inv
		fy := -mag * dy * inv
		// The lock-free sink gets its own copy of the adds, and the
		// mask is read through dst only past this test: hoisting it
		// into locals costs the whole loop registers, and the serial
		// kernel several percent.
		if dst.Shared == nil {
			f0[i] += fx
			f1[i] += fy
			if j < nc {
				f0[j] -= fx
				f1[j] -= fy
			}
			continue
		}
		shared, locks := dst.Shared, dst.Locks
		held := shared[i]
		if held {
			lock(&locks[i])
		}
		f0[i] += fx
		f1[i] += fy
		if held {
			unlock(&locks[i])
		}
		if j < nc {
			if held = shared[j]; held {
				lock(&locks[j])
			}
			f0[j] -= fx
			f1[j] -= fy
			if held {
				unlock(&locks[j])
			}
		}
	}
	return epot, contacts, distSum
}

func (s Spring) onePass3(dst *Sink, ps *particle.Store, links []cell.Link, nCore int, box geom.Box, epot, scale float64) (float64, int64, int64) {
	n := ps.Len()
	x0, x1, x2 := ps.Pos[0][:n], ps.Pos[1][:n], ps.Pos[2][:n]
	v0, v1, v2 := ps.Vel[0][:n], ps.Vel[1][:n], ps.Vel[2][:n]
	f0, f1, f2 := dst.Frc[0][:n], dst.Frc[1][:n], dst.Frc[2][:n]
	h := box.HalfLengths()
	l0, l1, l2 := box.Len[0], box.Len[1], box.Len[2]
	h0, h1, h2 := h[0], h[1], h[2]
	diam2 := s.Diameter * s.Diameter
	hertz, damp := s.Hertz, s.Damp
	ke := s.energyCoeff(scale)
	nc := int32(nCore)
	var contacts, distSum int64
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
		r := math.Sqrt(r2)
		inv := 1.0 / r
		overlap := s.Diameter - r
		var mag, epair float64
		if hertz {
			hh := overlap * math.Sqrt(overlap)
			mag = s.K * hh
			epair = ke * hh * overlap
		} else {
			mag = s.K * overlap
			epair = ke * overlap * overlap
		}
		if damp > 0 {
			vn := ((v0[j]-v0[i])*dx + (v1[j]-v1[i])*dy + (v2[j]-v2[i])*dz) * inv
			mag -= damp * vn
		}
		epot += epair
		fx := -mag * dx * inv
		fy := -mag * dy * inv
		fz := -mag * dz * inv
		if dst.Shared == nil {
			f0[i] += fx
			f1[i] += fy
			f2[i] += fz
			if j < nc {
				f0[j] -= fx
				f1[j] -= fy
				f2[j] -= fz
			}
			continue
		}
		shared, locks := dst.Shared, dst.Locks
		held := shared[i]
		if held {
			lock(&locks[i])
		}
		f0[i] += fx
		f1[i] += fy
		f2[i] += fz
		if held {
			unlock(&locks[i])
		}
		if j < nc {
			if held = shared[j]; held {
				lock(&locks[j])
			}
			f0[j] -= fx
			f1[j] -= fy
			f2[j] -= fz
			if held {
				unlock(&locks[j])
			}
		}
	}
	return epot, contacts, distSum
}
