package geom

import (
	"fmt"
	"math"
)

// Boundary selects the boundary-condition handling of a Box.
type Boundary int

const (
	// Periodic wraps coordinates modulo the box length in every
	// dimension, and displacements use the minimum-image convention.
	Periodic Boundary = iota
	// Reflecting treats every face as a hard elastic wall: positions
	// are folded back inside and the corresponding velocity component
	// is negated by the integrator.
	Reflecting
)

func (b Boundary) String() string {
	switch b {
	case Periodic:
		return "periodic"
	case Reflecting:
		return "reflecting"
	default:
		return fmt.Sprintf("Boundary(%d)", int(b))
	}
}

// Box is a D-dimensional rectangular simulation domain with its lower
// corner at the origin. The paper's benchmark uses an L^D box; we allow
// unequal edge lengths because sub-blocks of a decomposed domain are
// themselves boxes.
type Box struct {
	D   int      // active dimensionality, 1..MaxD
	Len Vec      // edge lengths; components beyond D are zero
	BC  Boundary // boundary condition on the outer walls
}

// NewBox returns a cubic L^d box with the given boundary condition.
func NewBox(d int, l float64, bc Boundary) Box {
	if d < 1 || d > MaxD {
		panic(fmt.Sprintf("geom: dimension %d out of range [1,%d]", d, MaxD))
	}
	if l <= 0 {
		panic(fmt.Sprintf("geom: non-positive box length %g", l))
	}
	var b Box
	b.D = d
	b.BC = bc
	for i := 0; i < d; i++ {
		b.Len[i] = l
	}
	return b
}

// Volume returns the D-dimensional volume of the box.
func (b Box) Volume() float64 {
	v := 1.0
	for i := 0; i < b.D; i++ {
		v *= b.Len[i]
	}
	return v
}

// Contains reports whether p lies inside the half-open box [0, Len).
func (b Box) Contains(p Vec) bool {
	for i := 0; i < b.D; i++ {
		if p[i] < 0 || p[i] >= b.Len[i] {
			return false
		}
	}
	return true
}

// Wrap folds position p back into the box according to the boundary
// condition. For Reflecting boxes it also reports, per dimension,
// whether the velocity component must be negated (an odd number of
// reflections). The returned Vec is the folded position; flip[i] is
// true when dimension i reflected an odd number of times.
func (b Box) Wrap(p Vec) (Vec, [MaxD]bool) {
	var flip [MaxD]bool
	for i := 0; i < b.D; i++ {
		p[i], flip[i] = b.Fold(p[i], i)
	}
	return p, flip
}

// Fold is Wrap for one coordinate: x of dimension k folded into
// [0, Len[k]), and whether it reflected an odd number of times. A
// coordinate already in that interval comes back as it is, without the
// math.Mod: Mod(x, m) returns x bit for bit whenever |x| < m, both the
// periodic modulus l and the reflecting period 2l exceed every x in
// [0, l), and none of the corrections after the Mod fires there, so
// leaving it out is exact — for -0 too, which compares inside and
// which Mod hands back as -0. A NaN compares outside and stays a NaN.
// Every boundary fold of the engine — Wrap, the particle sweep,
// migration, the state gathers — is this one function.
func (b Box) Fold(x float64, k int) (float64, bool) {
	l := b.Len[k]
	if x >= 0 && x < l {
		return x, false
	}
	return foldOutside(x, l, b.BC)
}

// foldOutside folds a coordinate that has left [0, l). It is O(1) for
// arbitrarily distant coordinates.
func foldOutside(x, l float64, bc Boundary) (float64, bool) {
	flip := false
	switch bc {
	case Periodic:
		x = math.Mod(x, l)
		if x < 0 {
			x += l
		}
		// math.Mod can return exactly l for x slightly below 0
		// due to rounding; fold once more to stay half-open.
		if x >= l {
			x -= l
		}
	case Reflecting:
		// Fold into [0, 2l) with period 2l, then reflect the
		// upper half.
		period := 2 * l
		x = math.Mod(x, period)
		if x < 0 {
			x += period
		}
		if x >= l {
			x = period - x
			flip = true
		}
		// Guard against x == l from rounding at the fold point.
		if x >= l {
			x = math.Nextafter(l, 0)
		}
	}
	return x, flip
}

// FoldSlice folds every coordinate of xs, one component stream of
// dimension k, in place; reflections are not reported, as for a
// position whose velocity the caller does not hold.
func (b Box) FoldSlice(xs []float64, k int) {
	l := b.Len[k]
	for i, x := range xs {
		if x < 0 || x >= l {
			xs[i], _ = foldOutside(x, l, b.BC)
		}
	}
}

// HalfLength returns the minimum-image threshold of component k:
// exactly Len[k]/2 when the box is periodic (halving a float64 is
// exact, so comparing against a stored half is bit-identical to
// comparing against l/2 inline) and +Inf otherwise, which switches the
// image branches off without a separate boundary-condition test. The
// pair kernels, Dist2At, particle.Store.MaxDisp2 and the particle sweep
// all take their threshold from here.
func (b Box) HalfLength(k int) float64 {
	if b.BC == Periodic {
		return b.Len[k] / 2
	}
	return math.Inf(1)
}

// HalfLengths returns HalfLength for every active component, for a
// kernel to hoist out of its loop.
func (b Box) HalfLengths() (h Vec) {
	for k := 0; k < b.D; k++ {
		h[k] = b.HalfLength(k)
	}
	return h
}

// Disp returns the displacement from a to b honouring the boundary
// condition: for Periodic boxes this is the minimum-image displacement,
// otherwise the plain difference.
func (b Box) Disp(from, to Vec) Vec {
	d := Sub(to, from, b.D)
	if b.BC == Periodic {
		for i := 0; i < b.D; i++ {
			l := b.Len[i]
			if d[i] > l/2 {
				d[i] -= l
			} else if d[i] < -l/2 {
				d[i] += l
			}
		}
	}
	return d
}

// Dist2 returns the squared distance between p and q under the box's
// boundary condition.
func (b Box) Dist2(p, q Vec) float64 {
	d := b.Disp(p, q)
	return Norm2(d, b.D)
}
