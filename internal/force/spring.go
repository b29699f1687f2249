// Package force implements the pairwise interaction and the time
// integrator of the paper's test code: identical elastic spheres whose
// contact force costs "one floating point inverse and one square root"
// per pair, optional dissipative damping (the grain-bond model of the
// full Physics DEM), and a second-order accurate kick-drift update.
package force

import (
	"math"
	"runtime"
	"sync/atomic"

	"hybriddem/internal/cell"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
	"hybriddem/internal/trace"
)

// Spring is a linear repulsive contact force between spheres of equal
// diameter: for separation r < Diameter the pair repels with magnitude
// K*(Diameter-r), plus an optional dissipative term Damp*vn along the
// contact normal (a "dissipative spring", zero for the elastic
// benchmark). Particle mass is 1.
type Spring struct {
	Diameter float64 // contact distance; rmax of the model
	K        float64 // spring stiffness
	Damp     float64 // normal damping coefficient, >= 0

	// Hertz switches the contact law from the paper's linear spring
	// to the Hertzian K*overlap^(3/2) of elastic-sphere contact
	// mechanics — softer at grazing contact, stiffer when deeply
	// compressed. Provided as a model extension; all benchmarks use
	// the linear law.
	Hertz bool

	// Bonds, when non-nil, overrides the contact force for the
	// permanently bonded pairs of composite grains (see BondTable).
	Bonds *BondTable
}

// RMax returns the longest force range, which for a contact model is
// the sphere diameter.
func (s Spring) RMax() float64 { return s.Diameter }

// PairEnergy returns the potential energy stored at separation r.
func (s Spring) PairEnergy(r float64) float64 {
	if r >= s.Diameter {
		return 0
	}
	o := s.Diameter - r
	if s.Hertz {
		return 0.4 * s.K * o * o * math.Sqrt(o)
	}
	return 0.5 * s.K * o * o
}

// Pair computes the force the pair exerts on particle i (the force on
// j is the negative) and the pair potential energy, given the
// displacement from i to j and the relative velocity vj-vi. It mirrors
// the paper's cost profile: one sqrt and one divide on the hot path.
func (s Spring) Pair(disp, relVel geom.Vec, d int) (fi geom.Vec, e float64, contact bool) {
	r2 := geom.Norm2(disp, d)
	if r2 >= s.Diameter*s.Diameter || r2 == 0 {
		return geom.Vec{}, 0, false
	}
	r := math.Sqrt(r2)
	inv := 1.0 / r
	overlap := s.Diameter - r
	// Repulsion pushes i away from j: along -disp.
	var mag, epair float64
	if s.Hertz {
		h := overlap * math.Sqrt(overlap)
		mag = s.K * h
		epair = 0.4 * s.K * h * overlap // integral of K o^(3/2)
	} else {
		mag = s.K * overlap
		epair = 0.5 * s.K * overlap * overlap
	}
	if s.Damp > 0 {
		// Normal component of the approach velocity; damping opposes
		// relative motion along the contact normal.
		vn := geom.Dot(relVel, disp, d) * inv
		mag -= s.Damp * vn
	}
	for k := 0; k < d; k++ {
		fi[k] = -mag * disp[k] * inv
	}
	return fi, epair, true
}

// Sink says where a pair kernel's forces go. It is data, not a call:
// the kernels keep their adds inline and branch on what the sink holds.
//
// Frc are the destination component slices, indexed like the store the
// links refer to — the store's own Frc, or a thread-private array of
// the same shape for the array-reduction strategies. Shared, when
// non-nil, marks the particles whose adds must take that particle's
// entry of Locks (a spinlock word, 0 = free): nil means plain stores
// (serial, message passing, one thread, the unprotected ablation), a
// conflict table locks only what two threads touch, an all-true mask
// locks every update. A particle's components are added under one lock
// hold, endpoint I before endpoint J, in link order.
//
// Hook, when non-nil, sees every pair force before it is added (the
// fault-injection point of internal/verify) and forces the generic loop.
type Sink struct {
	Frc    *geom.Coords
	Shared []bool
	Locks  []int32
	Hook   func(idI, idJ int32, fi geom.Vec) geom.Vec
}

func lock(l *int32) {
	for !atomic.CompareAndSwapInt32(l, 0, 1) {
		runtime.Gosched()
	}
}

func unlock(l *int32) { atomic.StoreInt32(l, 0) }

// Accumulate walks links, adding pair forces into ps.Frc and returning
// the accumulated potential energy scaled by energyScale (the paper
// multiplies halo-link energy by one half to avoid double counting
// between replicating blocks). Forces are applied to link endpoint I
// always and to J only when J < nCore: halo copies never need forces
// since their home block computes the mirrored update itself.
//
// This is the serial entry to the pair kernel the thread-parallel
// updaters of internal/shm run too: AccumulateRange with the store's
// own force array as a lock-free sink.
func (s Spring) Accumulate(ps *particle.Store, links []cell.Link, nCore int, box geom.Box, energyScale float64, tc *trace.Counters) float64 {
	return s.AccumulateView(ps, links, len(links), nCore, box, energyScale, tc)
}

// AccumulateView is Accumulate for a caller that walks walk, the image
// in a contact-range view (cell.View) of a range of skin links: the
// same contacts in the same order, so the same forces and epot. The
// counters still count the skin range — the virtual clock prices the
// list the paper's code walks — and LinksTested counts walk.
func (s Spring) AccumulateView(ps *particle.Store, walk []cell.Link, skin, nCore int, box geom.Box, energyScale float64, tc *trace.Counters) float64 {
	epot, contacts := s.AccumulateRange(&Sink{Frc: &ps.Frc}, ps, walk, nCore, box, 0, energyScale)
	if tc != nil {
		n := int64(skin)
		tc.ForceEvals += n
		tc.LinkVisits += n
		tc.LinksTested += int64(len(walk))
		tc.Contacts += contacts
		tc.ForceUpdates += 2 * n
	}
	return epot
}

// AccumulateRange is the pair kernel every execution mode runs: it
// walks links in order, adds each pair force into dst, and returns
// epot plus scale times every pair energy — one running accumulator,
// so a caller that threads the result of one range into the next gets
// the sum a single loop would have produced — with the number of
// contacts in the range. (The cost model's locality figure is the
// list's DistSum, which the builder sums as it emits.)
//
// Without a bond table or a hook it dispatches to the
// dimension-specialised structure-of-arrays loops, whose inner bodies
// carry no function calls: the component slices are re-sliced to the
// particle count once so the compiler hoists the bounds checks, and
// the pair math runs in registers. Their float64 results are
// bit-identical to the generic Disp/Sub/PairID loop — the same
// operations in the same order — which TestSoABitIdenticalToSeed
// enforces against pre-refactor golden trajectories and the shm
// differential test enforces sink by sink. scale must be a power of
// two for that to hold (it is 1 or 1/2): see energyCoeff.
func (s Spring) AccumulateRange(dst *Sink, ps *particle.Store, links []cell.Link, nCore int, box geom.Box, epot, scale float64) (float64, int64) {
	if len(links) == 0 {
		return epot, 0
	}
	if s.Bonds == nil && dst.Hook == nil {
		switch ps.D {
		case 2:
			return s.accumulate2(dst, ps, links, nCore, box, epot, scale)
		case 3:
			return s.accumulate3(dst, ps, links, nCore, box, epot, scale)
		}
	}
	return s.accumulateSlow(dst, ps, links, nCore, box, epot, scale)
}

// energyCoeff returns the leading coefficient of the pair energy, 0.5*K
// (0.4*K for the Hertz law), times the caller's energy scale. Folding
// the scale in here instead of multiplying every pair energy by it is
// exact for the scales in use, 1 and 1/2: a power of two commutes with
// every rounding, so coeff*o*o is bit for bit scale*(0.5*K*o*o).
func (s Spring) energyCoeff(scale float64) float64 {
	if s.Hertz {
		return 0.4 * s.K * scale
	}
	return 0.5 * s.K * scale
}

// batch is how many links a contact kernel tests before it evaluates
// any of them: enough to keep the test loop long, few enough that the
// contacts it collects stay in L1 for the second pass. It is a power of
// two, so masking a slot index with batch-1 proves it in range.
const batch = 128

// slot is a contact the first pass of a batch found: its endpoints,
// its minimum-image displacement and r².
type slot struct {
	i, j       int32
	dx, dy, dz float64
	r2         float64
}

// inContact is the contact test, !(r2 >= diam2 || r2 == 0), as 0 or 1
// with no data-dependent branch: each half compiles to a SETcc. A NaN
// r2 is a contact, so a blown-up particle spreads NaN instead of
// vanishing; r2 == 0 is read off the bits with the sign shifted out,
// which is exact for both zeros and every NaN.
func inContact(r2, diam2 float64) int {
	var near, apart int
	if !(r2 >= diam2) {
		near = 1
	}
	if math.Float64bits(r2)<<1 != 0 {
		apart = 1
	}
	return near & apart
}

// wrap returns the minimum image of the coordinate difference d on an
// axis of edge l and half edge h.
func wrap(d, h, l float64) float64 {
	if d > h {
		return d - l
	}
	if d < -h {
		return d + l
	}
	return d
}

// near2 and near3 are the first pass of a batch: the minimum-image
// displacement and r² of every link in blk, written to the next free
// slot of hit with the slot cursor advanced by inContact — no branch on
// the distance, which a contact rate near a third would mispredict.
// h and edge are the box's half edges (+Inf on an axis that does not
// wrap) and edges. They return the number of slots filled.
//
// A component reaches wrap only when its square is at least the half
// edge's. Every component past the half edge gets there, since rounding
// is monotonic, and the rest come back from wrap unchanged, so the
// displacement is bit for bit what wrap alone gives, while the common
// in-box component pays one compare, on a square r² needs anyway.
func near2(hit *[batch]slot, blk []cell.Link, x0, x1 []float64, h, edge *geom.Vec, diam2 float64) int {
	h0, h1, l0, l1 := h[0], h[1], edge[0], edge[1]
	hh0, hh1 := h0*h0, h1*h1
	k := 0
	for _, l := range blk {
		i, j := l.I, l.J
		dx := x0[j] - x0[i]
		qx := dx * dx
		if qx >= hh0 {
			dx = wrap(dx, h0, l0)
			qx = dx * dx
		}
		dy := x1[j] - x1[i]
		qy := dy * dy
		if qy >= hh1 {
			dy = wrap(dy, h1, l1)
			qy = dy * dy
		}
		r2 := qx + qy
		c := &hit[k&(batch-1)]
		c.i, c.j, c.dx, c.dy, c.r2 = i, j, dx, dy, r2
		k += inContact(r2, diam2)
	}
	return k
}

func near3(hit *[batch]slot, blk []cell.Link, x0, x1, x2 []float64, h, edge *geom.Vec, diam2 float64) int {
	h0, h1, h2 := h[0], h[1], h[2]
	l0, l1, l2 := edge[0], edge[1], edge[2]
	hh0, hh1, hh2 := h0*h0, h1*h1, h2*h2
	k := 0
	for _, l := range blk {
		i, j := l.I, l.J
		dx := x0[j] - x0[i]
		qx := dx * dx
		if qx >= hh0 {
			dx = wrap(dx, h0, l0)
			qx = dx * dx
		}
		dy := x1[j] - x1[i]
		qy := dy * dy
		if qy >= hh1 {
			dy = wrap(dy, h1, l1)
			qy = dy * dy
		}
		dz := x2[j] - x2[i]
		qz := dz * dz
		if qz >= hh2 {
			dz = wrap(dz, h2, l2)
			qz = dz * dz
		}
		r2 := qx + qy + qz
		c := &hit[k&(batch-1)]
		c.i, c.j, c.dx, c.dy, c.dz, c.r2 = i, j, dx, dy, dz, r2
		k += inContact(r2, diam2)
	}
	return k
}

// accumulate2 is the d=2 contact kernel on component slices. It walks
// the links in batches of two passes: near2 finds the contacts, then
// the contact law runs on the slots it filled, in link order.
//
// The result is bit for bit that of one loop branching on the contact
// test: each link's displacement and r² are the same operations on the
// same operands, the contacts reach every particle and epot in link
// order, and a link out of contact would only add ±0.0, which cannot
// change an accumulator seeded at +0.0 under IEEE-754 round-to-nearest. The
// relative velocity loads only when the spring is damped — the
// undamped law never reads it.
func (s Spring) accumulate2(dst *Sink, ps *particle.Store, links []cell.Link, nCore int, box geom.Box, epot, scale float64) (float64, int64) {
	n := ps.Len()
	x0, x1 := ps.Pos[0][:n], ps.Pos[1][:n]
	v0, v1 := ps.Vel[0][:n], ps.Vel[1][:n]
	f0, f1 := dst.Frc[0][:n], dst.Frc[1][:n]
	h := box.HalfLengths()
	diam2 := s.Diameter * s.Diameter
	hertz, damp := s.Hertz, s.Damp
	ke := s.energyCoeff(scale)
	nc := int32(nCore)
	var contacts int64
	var hit [batch]slot
	for len(links) > 0 {
		blk := links[:min(batch, len(links))]
		links = links[len(blk):]
		k := near2(&hit, blk, x0, x1, &h, &box.Len, diam2)
		contacts += int64(k)
		for q := 0; q < k; q++ {
			c := &hit[q&(batch-1)]
			i, j, dx, dy := c.i, c.j, c.dx, c.dy
			r := math.Sqrt(c.r2)
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
	}
	return epot, contacts
}

// accumulate3 is the d=3 contact kernel on component slices; see
// accumulate2 for the two passes and why they are exact.
func (s Spring) accumulate3(dst *Sink, ps *particle.Store, links []cell.Link, nCore int, box geom.Box, epot, scale float64) (float64, int64) {
	n := ps.Len()
	x0, x1, x2 := ps.Pos[0][:n], ps.Pos[1][:n], ps.Pos[2][:n]
	v0, v1, v2 := ps.Vel[0][:n], ps.Vel[1][:n], ps.Vel[2][:n]
	f0, f1, f2 := dst.Frc[0][:n], dst.Frc[1][:n], dst.Frc[2][:n]
	h := box.HalfLengths()
	diam2 := s.Diameter * s.Diameter
	hertz, damp := s.Hertz, s.Damp
	ke := s.energyCoeff(scale)
	nc := int32(nCore)
	var contacts int64
	var hit [batch]slot
	for len(links) > 0 {
		blk := links[:min(batch, len(links))]
		links = links[len(blk):]
		k := near3(&hit, blk, x0, x1, x2, &h, &box.Len, diam2)
		contacts += int64(k)
		for q := 0; q < k; q++ {
			c := &hit[q&(batch-1)]
			i, j, dx, dy, dz := c.i, c.j, c.dx, c.dy, c.dz
			r := math.Sqrt(c.r2)
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
	}
	return epot, contacts
}

// accumulateSlow is the generic kernel: it gathers Vec values from the
// component slices and evaluates the bond-aware pair law, serving any
// dimensionality, every bonded run and every hooked one.
func (s Spring) accumulateSlow(dst *Sink, ps *particle.Store, links []cell.Link, nCore int, box geom.Box, epot, scale float64) (float64, int64) {
	d := ps.D
	pos, vel, ids := &ps.Pos, &ps.Vel, ps.ID
	var contacts int64
	for _, l := range links {
		disp := box.DispAt(pos, l.I, l.J)
		rel := geom.SubAt(vel, l.J, l.I, d)
		fi, e, contact := s.PairID(ids[l.I], ids[l.J], disp, rel, d)
		if dst.Hook != nil {
			fi = dst.Hook(ids[l.I], ids[l.J], fi)
		}
		if contact {
			contacts++
		}
		epot += scale * e
		dst.add(l.I, fi, d, 1)
		if int(l.J) < nCore {
			dst.add(l.J, fi, d, -1)
		}
	}
	return epot, contacts
}

// add accumulates sign*v into particle p of the sink, under p's lock
// when the sink marks p shared.
func (dst *Sink) add(p int32, v geom.Vec, d int, sign float64) {
	held := dst.Shared != nil && dst.Shared[p]
	if held {
		lock(&dst.Locks[p])
	}
	for k := 0; k < d; k++ {
		dst.Frc[k][p] += sign * v[k]
	}
	if held {
		unlock(&dst.Locks[p])
	}
}

// PotentialOnly walks links summing pair potential energy without
// touching the force array; used by invariant tests.
func (s Spring) PotentialOnly(ps *particle.Store, links []cell.Link, box geom.Box, scale float64) float64 {
	epot := 0.0
	for _, l := range links {
		r2 := box.Dist2At(&ps.Pos, l.I, l.J)
		if r2 < s.Diameter*s.Diameter {
			epot += s.PairEnergy(math.Sqrt(r2))
		}
	}
	return epot * scale
}
