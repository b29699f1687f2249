package geom

// Coords is component-major (structure-of-arrays) storage for particle
// vectors: Coords[k][i] is component k of particle i. A d-dimensional
// system populates only the first d component slices; the rest stay
// nil. The layout is the cache optimisation the paper attributes to
// memory order: a kernel that walks one component walks one contiguous
// stream of float64s, so the force loop's loads vectorise and never
// drag the other components' cache lines through the core.
//
// Coords is plain storage like Vec: every operation takes the active
// dimensionality d explicitly. Helper methods gather to and scatter
// from Vec at the boundaries; hot kernels index the component slices
// directly.
type Coords [MaxD][]float64

// MakeCoords returns component storage for d dimensions with capacity
// hint n and length zero.
func MakeCoords(d, n int) Coords {
	var c Coords
	for k := 0; k < d; k++ {
		c[k] = make([]float64, 0, n)
	}
	return c
}

// Len returns the number of stored vectors.
func (c *Coords) Len() int { return len(c[0]) }

// At gathers vector i into a Vec (components beyond d are zero).
func (c *Coords) At(i, d int) Vec {
	var v Vec
	for k := 0; k < d; k++ {
		v[k] = c[k][i]
	}
	return v
}

// Set scatters v into slot i.
func (c *Coords) Set(i int, v Vec, d int) {
	for k := 0; k < d; k++ {
		c[k][i] = v[k]
	}
}

// Append adds v at the end.
func (c *Coords) Append(v Vec, d int) {
	for k := 0; k < d; k++ {
		c[k] = append(c[k], v[k])
	}
}

// Truncate shrinks to n vectors, retaining capacity.
func (c *Coords) Truncate(n, d int) {
	for k := 0; k < d; k++ {
		c[k] = c[k][:n]
	}
}

// CopyWithin copies vector src into slot dst (the swap-delete move).
func (c *Coords) CopyWithin(dst, src, d int) {
	for k := 0; k < d; k++ {
		c[k][dst] = c[k][src]
	}
}

// AppendCoords appends the first n vectors of src.
func (c *Coords) AppendCoords(src *Coords, n, d int) {
	for k := 0; k < d; k++ {
		c[k] = append(c[k], src[k][:n]...)
	}
}

// SubAt returns vector j minus vector i over the first d components —
// the component-major equivalent of Sub(c.At(j), c.At(i), d), and
// bit-identical to it.
func SubAt(c *Coords, j, i int32, d int) Vec {
	var r Vec
	for k := 0; k < d; k++ {
		r[k] = c[k][j] - c[k][i]
	}
	return r
}

// DispAt returns the boundary-honouring displacement from vector i to
// vector j of c, bit-identical to Disp(c.At(i), c.At(j)).
func (b Box) DispAt(c *Coords, i, j int32) Vec {
	var r Vec
	if b.BC == Periodic {
		for k := 0; k < b.D; k++ {
			dx := c[k][j] - c[k][i]
			l := b.Len[k]
			if dx > l/2 {
				dx -= l
			} else if dx < -l/2 {
				dx += l
			}
			r[k] = dx
		}
	} else {
		for k := 0; k < b.D; k++ {
			r[k] = c[k][j] - c[k][i]
		}
	}
	return r
}

// Dist2At returns the squared distance between vectors i and j of c
// under the box's boundary condition, bit-identical to
// Dist2(c.At(i), c.At(j)): the minimum image is applied per component
// and the squares are summed in component order.
func (b Box) Dist2At(c *Coords, i, j int32) float64 {
	r2 := 0.0
	for k := 0; k < b.D; k++ {
		dx := c[k][j] - c[k][i]
		if h := b.HalfLength(k); dx > h {
			dx -= b.Len[k]
		} else if dx < -h {
			dx += b.Len[k]
		}
		r2 += dx * dx
	}
	return r2
}

// CoordsFromVecs builds component-major storage from a slice of Vec
// values — the array-of-structures to structure-of-arrays conversion,
// used at API boundaries and in tests.
func CoordsFromVecs(vs []Vec, d int) Coords {
	var c Coords
	for k := 0; k < d; k++ {
		c[k] = make([]float64, len(vs))
	}
	for i := range vs {
		for k := 0; k < d; k++ {
			c[k][i] = vs[i][k]
		}
	}
	return c
}

// Vecs gathers the first n vectors back into a []Vec — the inverse of
// CoordsFromVecs.
func (c *Coords) Vecs(n, d int) []Vec {
	out := make([]Vec, n)
	for i := 0; i < n; i++ {
		out[i] = c.At(i, d)
	}
	return out
}
