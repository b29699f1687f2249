// Package particle implements the structure-of-arrays particle store
// used by every execution mode, plus the cell-order reordering that the
// paper identifies as the key cache optimisation (Section 6.3).
//
// Storage is component-major (geom.Coords): all x coordinates are one
// contiguous []float64, all y coordinates another, and so on for
// velocities and force accumulators. The force kernel therefore streams
// d tight float64 arrays instead of striding through per-particle
// structs — the memory-order effect the paper measures as the largest
// serial lever. Accessor methods gather and scatter geom.Vec values at
// the boundaries (exchange packing, export, probes); hot loops index
// the component slices directly.
//
// A Store holds positions, velocities, forces and persistent global
// identities. In decomposed runs each block owns one Store whose first
// NCore entries are core particles and whose tail is halo copies; the
// reordering permutation is applied to the core only, "leaving the halo
// particles untouched" exactly as in the paper.
package particle

import (
	"fmt"
	"math/rand"

	"hybriddem/internal/geom"
)

// Store is a structure-of-arrays collection of particles. All component
// slices always have equal length.
type Store struct {
	D   int         // spatial dimensionality
	Pos geom.Coords // positions, component-major
	Vel geom.Coords // velocities, component-major
	Frc geom.Coords // force accumulators, component-major
	ID  []int32     // persistent global identity, stable across moves

	// Reused gather scratch for Permute; never copied by Clone.
	permPos, permVel, permFrc geom.Coords
	permID                    []int32
}

// New returns an empty store for dimensionality d with capacity hint n.
func New(d, n int) *Store {
	return &Store{
		D:   d,
		Pos: geom.MakeCoords(d, n),
		Vel: geom.MakeCoords(d, n),
		Frc: geom.MakeCoords(d, n),
		ID:  make([]int32, 0, n),
	}
}

// Len returns the number of particles currently stored.
func (s *Store) Len() int { return len(s.ID) }

// PosAt gathers the position of particle i into a Vec.
func (s *Store) PosAt(i int) geom.Vec { return s.Pos.At(i, s.D) }

// VelAt gathers the velocity of particle i into a Vec.
func (s *Store) VelAt(i int) geom.Vec { return s.Vel.At(i, s.D) }

// FrcAt gathers the force accumulator of particle i into a Vec.
func (s *Store) FrcAt(i int) geom.Vec { return s.Frc.At(i, s.D) }

// SetPos scatters p into particle i's position.
func (s *Store) SetPos(i int, p geom.Vec) { s.Pos.Set(i, p, s.D) }

// SetVel scatters v into particle i's velocity.
func (s *Store) SetVel(i int, v geom.Vec) { s.Vel.Set(i, v, s.D) }

// Append adds one particle and returns its index.
func (s *Store) Append(pos, vel geom.Vec, id int32) int {
	s.Pos.Append(pos, s.D)
	s.Vel.Append(vel, s.D)
	s.Frc.Append(geom.Vec{}, s.D)
	s.ID = append(s.ID, id)
	return len(s.ID) - 1
}

// Truncate shrinks the store to n particles. It is used to drop halo
// copies before a fresh halo exchange.
func (s *Store) Truncate(n int) {
	if n < 0 || n > len(s.ID) {
		panic(fmt.Sprintf("particle: truncate %d out of range [0,%d]", n, len(s.ID)))
	}
	s.Pos.Truncate(n, s.D)
	s.Vel.Truncate(n, s.D)
	s.Frc.Truncate(n, s.D)
	s.ID = s.ID[:n]
}

// Clear empties the store, retaining capacity.
func (s *Store) Clear() { s.Truncate(0) }

// Remove deletes particle i by swapping the last particle into its
// slot. Order is not preserved; callers that care (the link list) must
// rebuild afterwards, which is exactly when removals happen.
func (s *Store) Remove(i int) {
	last := len(s.ID) - 1
	s.Pos.CopyWithin(i, last, s.D)
	s.Vel.CopyWithin(i, last, s.D)
	s.Frc.CopyWithin(i, last, s.D)
	s.ID[i] = s.ID[last]
	s.Truncate(last)
}

// Clone returns a deep copy of the store.
func (s *Store) Clone() *Store {
	c := New(s.D, s.Len())
	c.Pos.AppendCoords(&s.Pos, s.Len(), s.D)
	c.Vel.AppendCoords(&s.Vel, s.Len(), s.D)
	c.Frc.AppendCoords(&s.Frc, s.Len(), s.D)
	c.ID = append(c.ID, s.ID...)
	return c
}

// ZeroForces clears every force accumulator.
func (s *Store) ZeroForces() {
	for k := 0; k < s.D; k++ {
		f := s.Frc[k]
		for i := range f {
			f[i] = 0
		}
	}
}

// Permute reorders the first len(perm) particles so that slot i holds
// what slot perm[i] held before. Entries beyond len(perm) — the halo —
// are untouched. perm must be a permutation of [0, len(perm)).
func (s *Store) Permute(perm []int32) {
	n := len(perm)
	if n > s.Len() {
		panic(fmt.Sprintf("particle: permutation of %d over %d particles", n, s.Len()))
	}
	// Gather through store-owned scratch buffers, reused across
	// rebuilds so the cache reordering allocates only on growth. Each
	// component gathers independently: the permutation moves the same
	// float64 values, so the reorder stays bit-exact by construction.
	if cap(s.permID) < n {
		// An eighth to spare: a block's core count creeps up from
		// rebuild to rebuild as a bed settles, and an exact fit would
		// reallocate all ten arrays every time.
		room := n + n/8
		for k := 0; k < s.D; k++ {
			s.permPos[k] = make([]float64, room)
			s.permVel[k] = make([]float64, room)
			s.permFrc[k] = make([]float64, room)
		}
		s.permID = make([]int32, room)
	}
	for k := 0; k < s.D; k++ {
		pos := s.permPos[k][:n]
		vel := s.permVel[k][:n]
		frc := s.permFrc[k][:n]
		sp, sv, sf := s.Pos[k], s.Vel[k], s.Frc[k]
		for i, p := range perm {
			pos[i] = sp[p]
			vel[i] = sv[p]
			frc[i] = sf[p]
		}
		copy(sp, pos)
		copy(sv, vel)
		copy(sf, frc)
	}
	id := s.permID[:n]
	for i, p := range perm {
		id[i] = s.ID[p]
	}
	copy(s.ID, id)
}

// SnapshotPos returns a copy of the current positions; the rebuild
// criterion compares against the snapshot taken at list-build time.
func (s *Store) SnapshotPos() geom.Coords {
	out := geom.MakeCoords(s.D, s.Len())
	out.AppendCoords(&s.Pos, s.Len(), s.D)
	return out
}

// MaxDisp2 returns the maximum squared displacement of the first n
// particles relative to ref, using box displacement (minimum image for
// periodic boxes): per particle the squares of the imaged components,
// summed in component order. ref must have at least n entries per
// component. The step loops take this maximum from force.Sweep, which
// measures it the same way as it moves the particles; this walk is the
// oracle the sweep is tested against.
func (s *Store) MaxDisp2(ref *geom.Coords, n int, box geom.Box) float64 {
	h := box.HalfLengths()
	maxd := 0.0
	for i := 0; i < n; i++ {
		d := 0.0
		for k := 0; k < box.D; k++ {
			dx := s.Pos[k][i] - ref[k][i]
			if dx > h[k] {
				dx -= box.Len[k]
			} else if dx < -h[k] {
				dx += box.Len[k]
			}
			d += dx * dx
		}
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

// FillUniform populates the store with n particles placed uniformly at
// random in box, with zero velocity, assigning sequential IDs starting
// at firstID. It is the initial condition of the paper's benchmark
// ("a uniform, random distribution of one million identical elastic
// spheres").
func FillUniform(s *Store, n int, box geom.Box, firstID int32, rng *rand.Rand) {
	for k := 0; k < n; k++ {
		var p geom.Vec
		for i := 0; i < box.D; i++ {
			p[i] = rng.Float64() * box.Len[i]
		}
		s.Append(p, geom.Vec{}, firstID+int32(k))
	}
}

// FillUniformVel populates like FillUniform but draws each velocity
// component uniformly from [-vmax, vmax]. Used by tests and examples
// that need motion from step one.
func FillUniformVel(s *Store, n int, box geom.Box, vmax float64, firstID int32, rng *rand.Rand) {
	for k := 0; k < n; k++ {
		var p, v geom.Vec
		for i := 0; i < box.D; i++ {
			p[i] = rng.Float64() * box.Len[i]
			v[i] = (2*rng.Float64() - 1) * vmax
		}
		s.Append(p, v, firstID+int32(k))
	}
}

// FillClustered populates like FillUniformVel but compresses the last
// coordinate into the bottom heightFrac of the box: a settled bed of
// grains, the spatially clustered workload that motivates the paper's
// load-balancing study. The random draw sequence matches
// FillUniform/FillUniformVel so decomposed runs reproduce the same
// configuration.
func FillClustered(s *Store, n int, box geom.Box, heightFrac, vmax float64, firstID int32, rng *rand.Rand) {
	if heightFrac <= 0 || heightFrac > 1 {
		heightFrac = 1
	}
	last := box.D - 1
	for k := 0; k < n; k++ {
		var p, v geom.Vec
		for i := 0; i < box.D; i++ {
			p[i] = rng.Float64() * box.Len[i]
			if vmax > 0 {
				v[i] = (2*rng.Float64() - 1) * vmax
			}
		}
		p[last] *= heightFrac
		s.Append(p, v, firstID+int32(k))
	}
}
