// Package cell implements the standard cell-based neighbour search of
// the paper's Section 4.1: the region is divided into cubical cells
// slightly larger than the cutoff rc, particles are binned into cells,
// and pairwise links are created by checking only the same cell and the
// half stencil of neighbouring cells, which visits every unordered pair
// exactly once.
//
// The binning pass also produces the cell-ordered particle index list
// that Section 6.3 re-uses for cache reordering: "we can re-use this
// same list to order the core particles so that they appear in
// cell-order".
package cell

import (
	"fmt"
	"math"

	"hybriddem/internal/geom"
	"hybriddem/internal/trace"
)

// Grid is a cell decomposition of a rectangular region. The region may
// be the whole (possibly periodic) simulation box, or one block's
// extended core+halo region in a decomposed run.
type Grid struct {
	D       int
	Origin  geom.Vec // lower corner of the gridded region
	Span    geom.Vec // edge lengths of the gridded region
	CellLen geom.Vec // actual cell edge, >= the requested minimum
	N       [geom.MaxD]int
	Wrap    bool // periodic wraparound when searching neighbours

	// degenerate is set when a periodic region is too small for the
	// stencil to be unambiguous (fewer than 3 cells in some wrapped
	// dimension); link building then falls back to all-pairs with
	// minimum image, which is always correct.
	degenerate bool

	// Binning results, valid after Bin.
	cellOf []int32 // cell index per particle
	count  []int32 // particles per cell
	start  []int32 // prefix offsets into order
	order  []int32 // particle indices sorted by cell

	// identity records that order is the identity permutation: the
	// particles already sit in cell order, as they do once the store
	// has been permuted by Order. The link sweep then reads the
	// caller's coordinates in place of a gathered copy.
	identity bool

	// Reused scratch: fill cursors for the serial counting sort, and
	// the per-thread count/cursor arrays of the parallel binning. Kept
	// on the grid so repeated rebuilds are allocation-free.
	fill      []int32
	perThread [][]int32
	curThread [][]int32
	unsorted  []bool           // per thread: its chunk of cellOf was not ascending
	stencil   [][geom.MaxD]int // half stencil of the grid's dimensionality

	// Link-build scratch: the cell-sorted coordinate view and per-cell
	// halo counts the sweep reads when order is not the identity, and
	// the storage of BuildLinksParallel — the list it returns (own,
	// which thread 0 emits into directly), the other threads' staging,
	// and one builder per thread.
	sorted     [geom.MaxD][]float64
	nHalo      []int32
	own        ListBuffer
	threadBufs []ListBuffer
	builders   []linkBuilder

	// The build in flight and the bodies BinParallel and
	// BuildLinksParallel hand to the pool: bound once, so a warm
	// parallel rebuild creates no closure.
	cur    build
	binPos *geom.Coords
	bodies poolBodies
}

// NewGrid builds a grid over the region [origin, origin+span) whose
// cells are at least minCell on every edge. With wrap set, neighbour
// search wraps around the region (whole-domain periodic mode).
func NewGrid(d int, origin, span geom.Vec, minCell float64, wrap bool) *Grid {
	if minCell <= 0 {
		panic(fmt.Sprintf("cell: non-positive cell size %g", minCell))
	}
	g := &Grid{D: d, Origin: origin, Span: span, Wrap: wrap, stencil: halfStencil(d)}
	for i := 0; i < d; i++ {
		n := int(math.Floor(span[i] / minCell))
		if n < 1 {
			n = 1
		}
		g.N[i] = n
		g.CellLen[i] = span[i] / float64(n)
		if wrap && n < 3 {
			g.degenerate = true
		}
	}
	for i := d; i < geom.MaxD; i++ {
		g.N[i] = 1
	}
	if g.degenerate {
		for i := 0; i < d; i++ {
			g.N[i] = 1
			g.CellLen[i] = span[i]
		}
	}
	return g
}

// NumCells returns the total number of cells.
func (g *Grid) NumCells() int {
	n := 1
	for i := 0; i < g.D; i++ {
		n *= g.N[i]
	}
	return n
}

// Degenerate reports whether the grid fell back to all-pairs search.
func (g *Grid) Degenerate() bool { return g.degenerate }

// cellIndex maps a position to its flattened cell index, clamping
// coordinates that sit exactly on (or, through rounding, just past) the
// upper faces.
func (g *Grid) cellIndex(p geom.Vec) int32 {
	idx := 0
	for i := 0; i < g.D; i++ {
		c := int((p[i] - g.Origin[i]) / g.CellLen[i])
		if c < 0 {
			c = 0
		}
		if c >= g.N[i] {
			c = g.N[i] - 1
		}
		idx = idx*g.N[i] + c
	}
	return int32(idx)
}

// cellIndexAt is cellIndex reading particle i straight out of
// component-major storage; same clamping, same arithmetic.
func (g *Grid) cellIndexAt(pos *geom.Coords, i int) int32 {
	idx := 0
	for k := 0; k < g.D; k++ {
		c := int((pos[k][i] - g.Origin[k]) / g.CellLen[k])
		if c < 0 {
			c = 0
		}
		if c >= g.N[k] {
			c = g.N[k] - 1
		}
		idx = idx*g.N[k] + c
	}
	return int32(idx)
}

// coords expands a flattened cell index back to per-dimension indices.
func (g *Grid) coords(idx int32) [geom.MaxD]int {
	var c [geom.MaxD]int
	v := int(idx)
	for i := g.D - 1; i >= 0; i-- {
		c[i] = v % g.N[i]
		v /= g.N[i]
	}
	return c
}

// flatten is the inverse of coords.
func (g *Grid) flatten(c [geom.MaxD]int) int32 {
	idx := 0
	for i := 0; i < g.D; i++ {
		idx = idx*g.N[i] + c[i]
	}
	return int32(idx)
}

// roomFor returns buf resized to n elements, reallocated with an eighth
// to spare when it is too small: a block's population creeps up from
// rebuild to rebuild as a bed settles, and an exact fit would have every
// one of those rebuilds reallocate. The contents are not kept.
func roomFor[T any](buf []T, n int) []T {
	if cap(buf) < n {
		buf = make([]T, n+n/8)
	}
	return buf[:n]
}

// sizeBins sizes the binning results for n particles and returns the
// number of cells.
func (g *Grid) sizeBins(n int) int {
	nc := g.NumCells()
	g.cellOf = roomFor(g.cellOf, n)
	g.order = roomFor(g.order, n)
	g.count = roomFor(g.count, nc)
	g.start = roomFor(g.start, nc+1)
	return nc
}

// Bin assigns the first n entries of pos to cells and builds the
// cell-ordered index list. It must be called before Links. Counters may
// be nil.
func (g *Grid) Bin(pos *geom.Coords, n int, tc *trace.Counters) {
	nc := g.sizeBins(n)
	for i := range g.count {
		g.count[i] = 0
	}
	prev, ascending := int32(0), true
	for i := 0; i < n; i++ {
		c := g.cellIndexAt(pos, i)
		g.cellOf[i] = c
		g.count[c]++
		ascending = ascending && c >= prev
		prev = c
	}
	// A stable sort of keys that already ascend moves nothing.
	g.identity = ascending
	g.start[0] = 0
	for c := 0; c < nc; c++ {
		g.start[c+1] = g.start[c] + g.count[c]
	}
	// Counting sort; fill slots per cell in ascending particle index so
	// the result is deterministic. The cursor array is grid-owned
	// scratch, reused across rebuilds.
	g.fill = roomFor(g.fill, nc)
	fill := g.fill
	copy(fill, g.start[:nc])
	for i := 0; i < n; i++ {
		c := g.cellOf[i]
		g.order[fill[c]] = int32(i)
		fill[c]++
	}
	if tc != nil {
		tc.CellBinOps += int64(n)
	}
}

// Order returns the cell-ordered particle index list from the last Bin.
// It is exactly the permutation that the cache optimisation applies to
// the particle store. The caller must not modify it.
func (g *Grid) Order() []int32 { return g.order }

// Reordered tells the grid that the caller has permuted the binned
// particles by Order (particle.Store.Permute): slot p now holds what
// Order()[p] named, so the binning stands as it is with the identity
// for its order — what binning the permuted positions again would
// compute, the counting sort being stable.
func (g *Grid) Reordered() {
	for p := range g.order {
		g.order[p] = int32(p)
	}
	g.identity = true
}

// CellParticles returns the indices of the particles in cell c, in
// ascending particle-index order.
func (g *Grid) CellParticles(c int32) []int32 {
	return g.order[g.start[c]:g.start[c+1]]
}

// halfStencil enumerates the neighbour offsets o in {-1,0,1}^D whose
// first nonzero component is positive: each unordered pair of adjacent
// cells is then visited exactly once.
func halfStencil(d int) [][geom.MaxD]int {
	var out [][geom.MaxD]int
	var walk func(i int, cur [geom.MaxD]int, nonzero bool, firstPos bool)
	walk = func(i int, cur [geom.MaxD]int, nonzero, firstPos bool) {
		if i == d {
			if nonzero && firstPos {
				out = append(out, cur)
			}
			return
		}
		for _, v := range [3]int{-1, 0, 1} {
			next := cur
			next[i] = v
			nz := nonzero || v != 0
			fp := firstPos
			if !nonzero && v != 0 {
				fp = v > 0
			}
			walk(i+1, next, nz, fp)
		}
	}
	walk(0, [geom.MaxD]int{}, false, false)
	return out
}
