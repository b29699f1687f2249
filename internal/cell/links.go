package cell

import (
	"hybriddem/internal/geom"
	"hybriddem/internal/trace"
)

// Link joins two particles closer than the cutoff. I and J index the
// particle store; the builder guarantees I < J for intra-cell links and
// a deterministic orientation for inter-cell links, so each pair
// appears exactly once ("the minimal number of force evaluations").
//
// A []Link is deliberately a flat array of sorted index pairs — eight
// bytes per link, generated in cell-major order so consecutive links
// touch nearby particle indices. Combined with the component-major
// particle store this is the streaming-access layout the pair kernel
// wants: the link stream is read once, sequentially, and the particle
// loads it induces stay within a few cache lines of each other.
type Link struct {
	I, J int32
}

// List is the fundamental object of the algorithm: "a single list of
// links", with "all the core links first" (Section 6). Links[0:NCore)
// touch only core particles; Links[NCore:] have at least one halo
// endpoint and their energy is halved by the caller to avoid double
// counting across the replicating blocks.
type List struct {
	Links []Link
	NCore int

	// DistSum is the sum of |I-J| over Links, accumulated by the builder
	// as it emits: the numerator of the locality figure the cache model
	// consumes, exact because it is an integer.
	DistSum int64
}

// CoreLinks returns the links whose endpoints are both core particles.
// The capacity is clipped at NCore so a caller that appends through the
// returned slice can never clobber the halo region of the list.
func (l *List) CoreLinks() []Link { return l.Links[:l.NCore:l.NCore] }

// HaloLinks returns the links with at least one halo endpoint.
func (l *List) HaloLinks() []Link { return l.Links[l.NCore:] }

// MeanDist returns the mean |I-J| across the list, 0 for an empty one.
func (l *List) MeanDist() float64 {
	if len(l.Links) == 0 {
		return 0
	}
	return float64(l.DistSum) / float64(len(l.Links))
}

// ListBuffer owns the reusable storage for link-list construction: the
// final list's backing array, into which core links are emitted
// directly, and the staging area of the halo links, which are appended
// behind them when the build ends. A caller that rebuilds lists
// repeatedly holds one ListBuffer per grid and passes it to
// BuildLinksInto; after the first few rebuilds the construction is
// allocation-free. The List returned by BuildLinksInto (and its Links
// backing) is owned by the buffer and is invalidated by the next
// BuildLinksInto call on the same buffer.
type ListBuffer struct {
	halo []Link
	list List
}

// build is what one list construction fixes for every thread that
// works on it.
type build struct {
	pos   *geom.Coords
	nCore int32
	rc2   float64
	box   geom.Box

	// The cell-sorted view the sweep reads (see sweep.go): x[k][p] and
	// idx[p] are the coordinates and the store index of the particle in
	// sorted slot p, nHalo[c] the number of halo copies in cell c. With
	// nHalo nil there is no halo and x is the caller's storage;
	// otherwise both are grid scratch that gatherCells fills. sweep is
	// false for the grids the generic loop serves.
	sweep bool
	x     [geom.MaxD][]float64
	idx   []int32
	nHalo []int32
	shift [geom.MaxD]float64 // box length to add on a leg that wraps this dimension, 0 for none
	image bool               // apply the general minimum image to every pair
}

// linkBuilder emits one thread's share of a build: core links into
// core[:nc], halo links into halo[:nh], both slices held at their full
// capacity so the sweep can store first and advance the cursor after.
// It is a plain struct with pointer-receiver methods (rather than a
// closure) so the hot rebuild path does not allocate.
type linkBuilder struct {
	build
	g          *Grid
	core, halo []Link
	nc, nh     int
	checks     int64
	dist       int64
	_          [64]byte // the threads' builders sit in one slice; keep their cursors on separate cache lines
}

// open points the builder at buf's storage, sized for the list buf held
// last plus an eighth: a bed that compacts from rebuild to rebuild then
// grows its list without a copy.
func (lb *linkBuilder) open(buf *ListBuffer) {
	lb.core = buf.list.Links[:cap(buf.list.Links)]
	lb.halo = buf.halo[:cap(buf.halo)]
	lb.nc, lb.nh, lb.checks, lb.dist = 0, 0, 0, 0
	if want := len(buf.list.Links) + len(buf.list.Links)/8; want > len(lb.core) {
		lb.core = make([]Link, want)
	}
}

// close hands the emitted links back to buf: the core links as its
// list, the halo links still in staging.
func (lb *linkBuilder) close(buf *ListBuffer) {
	buf.list = List{Links: lb.core[:lb.nc], NCore: lb.nc, DistSum: lb.dist}
	buf.halo = lb.halo[:lb.nh]
}

// list returns the halo or the core list and its cursor, with room for
// n more links behind the cursor.
func (lb *linkBuilder) list(toHalo bool, n int) (out *[]Link, used *int) {
	out, used = &lb.core, &lb.nc
	if toHalo {
		out, used = &lb.halo, &lb.nh
	}
	if *used+n > len(*out) {
		*out = growLinks(*out, *used, n)
	}
	return out, used
}

// growLinks returns a copy of buf[:used] with room for at least n more
// links, at least doubled.
func growLinks(buf []Link, used, n int) []Link {
	out := make([]Link, max(used+n, 2*len(buf), 64))
	copy(out, buf[:used])
	return out
}

// add distance-tests the candidate pair (i, j) and emits it as a core
// or halo link. Halo-halo pairs are excluded: forces on halo particles
// are never used (each block updates only its core), and every
// halo-halo pair is some block's core-halo or core-core pair, so
// including them would double work and double-count energy. Links are
// stored lower index first, which for a halo link is core first (core
// indices lie below nCore, halo indices at or above it), so the force
// loop can update F[I] unconditionally.
//
// This is the generic per-pair path: it serves one-dimensional grids
// and the degenerate all-pairs box. Every other grid goes through the
// sweep, which emits the same links in the same order.
func (lb *linkBuilder) add(i, j int32) {
	if i >= lb.nCore && j >= lb.nCore {
		return // halo-halo: some neighbouring block owns this pair
	}
	lb.checks++
	if lb.box.Dist2At(lb.pos, i, j) >= lb.rc2 {
		return
	}
	lo, hi := min(i, j), max(i, j)
	out, n := lb.list(hi >= lb.nCore, 1)
	(*out)[*n] = Link{lo, hi}
	*n++
	lb.dist += int64(hi - lo)
}

// addCellPairs emits every candidate pair of cell c through add:
// intra-cell pairs ("links internal to a cell originate from the
// lowest-numbered particle") and inter-cell pairs over the half stencil
// ("those between cells [originate] from the lowest-numbered cell").
// The sweep walks cells, stencil legs and particles in this order.
func (g *Grid) addCellPairs(lb *linkBuilder, c int32) {
	ps := g.CellParticles(c)
	for a := 0; a < len(ps); a++ {
		for b := a + 1; b < len(ps); b++ {
			lb.add(ps[a], ps[b])
		}
	}
	cc := g.coords(c)
	for _, off := range g.stencil {
		c2, _, ok := g.neighbour(cc, off)
		if !ok || c2 == c {
			continue // c2 == c: wrapped onto itself (cannot happen off the degenerate path, but cheap to guard)
		}
		qs := g.CellParticles(c2)
		for _, i := range ps {
			for _, j := range qs {
				lb.add(i, j)
			}
		}
	}
}

// neighbour returns the cell at offset off from the cell with
// coordinates cc and, per dimension, whether the step wrapped around
// the region downwards (-1) or upwards (+1). ok is false when the
// neighbour lies outside a grid that does not wrap.
func (g *Grid) neighbour(cc, off [geom.MaxD]int) (c2 int32, wrapped [geom.MaxD]int, ok bool) {
	idx := 0
	for i := 0; i < g.D; i++ {
		v := cc[i] + off[i]
		if v < 0 || v >= g.N[i] {
			if !g.Wrap {
				return 0, wrapped, false
			}
			if v < 0 {
				v += g.N[i]
				wrapped[i] = -1
			} else {
				v -= g.N[i]
				wrapped[i] = 1
			}
		}
		idx = idx*g.N[i] + v
	}
	return int32(idx), wrapped, true
}

// cells emits the pairs of the cells [clo, chi).
func (lb *linkBuilder) cells(clo, chi int32) {
	if lb.sweep {
		lb.sweepCells(clo, chi)
		return
	}
	for c := clo; c < chi; c++ {
		lb.g.addCellPairs(lb, c)
	}
}

// BuildLinks constructs the pair list for the first n entries of pos
// using the grid's binning (Bin must have been called with the same n
// on the same positions, which must lie inside the gridded region).
// Pairs are kept when their squared separation under box is below rc2.
// Particles with index >= nCore are halo copies; pass nCore == n when
// there is no halo. Counters may be nil.
//
// BuildLinks allocates a fresh buffer per call; steady-state callers
// should hold a ListBuffer and use BuildLinksInto instead.
func (g *Grid) BuildLinks(pos *geom.Coords, n, nCore int, rc2 float64, box geom.Box, tc *trace.Counters) *List {
	return g.BuildLinksInto(new(ListBuffer), pos, n, nCore, rc2, box, tc)
}

// BuildLinksInto is BuildLinks building into caller-owned reused
// storage. The returned List (and its Links slice) is backed by buf and
// stays valid until the next BuildLinksInto on the same buffer. The
// list's backing array is distinct from the halo staging area, so
// retaining CoreLinks/HaloLinks sub-slices can never alias the staging
// buffer of a later build.
func (g *Grid) BuildLinksInto(buf *ListBuffer, pos *geom.Coords, n, nCore int, rc2 float64, box geom.Box, tc *trace.Counters) *List {
	lb := linkBuilder{build: g.begin(pos, n, nCore, rc2, box), g: g}
	if lb.nHalo != nil {
		g.gatherCells(&lb.build, 0, int32(g.NumCells()))
	}
	lb.open(buf)
	if g.degenerate {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				lb.add(int32(i), int32(j))
			}
		}
	} else {
		lb.cells(0, int32(g.NumCells()))
	}
	lb.close(buf)
	out := &buf.list
	out.Links = append(out.Links, buf.halo...)
	if tc != nil {
		tc.PairChecks += lb.checks
		tc.LinkBuilds++
	}
	return out
}
