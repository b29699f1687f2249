package cell

import "hybriddem/internal/geom"

// The sweep is the builder's counterpart of the force package's
// accumulate2/accumulate3: one dimension-specialised loop over
// contiguous coordinate slices in place of a call chain per candidate
// pair. It reads a cell-sorted view of the positions — slot p of the
// view holds particle order[p], so a cell is one contiguous run of
// every coordinate slice — and walks cells, stencil legs and particles
// exactly as addCellPairs does, so the list it emits is element for
// element the list the generic loop emits.

// minImageCells is the number of cells a wrapped dimension needs before
// the minimum image can be decided per leg instead of per pair: two
// particles in the same or in adjacent cells are then less than two
// cell edges <= 0.4 box lengths apart, so the image test never fires on
// a leg that does not wrap, and on one that does the two cells are at
// least 0.6 box lengths apart, so it always fires, the same way for
// every pair of the leg. With 3 or 4 cells neither holds.
const minImageCells = 5

// begin fixes the parameters of one build and decides how the pairs are
// walked.
func (g *Grid) begin(pos *geom.Coords, n, nCore int, rc2 float64, box geom.Box) build {
	b := build{pos: pos, nCore: int32(nCore), rc2: rc2, box: box, idx: g.order}
	b.sweep = !g.degenerate && g.D >= 2
	if !b.sweep {
		return b
	}
	if box.BC == geom.Periodic {
		for k := 0; k < g.D; k++ {
			if g.Wrap && g.N[k] >= minImageCells && g.Span[k] == box.Len[k] {
				b.shift[k] = box.Len[k]
			} else {
				b.image = true
			}
		}
	}
	if g.identity && nCore == n {
		// Right after a reorder the store is the sorted view.
		for k := 0; k < g.D; k++ {
			b.x[k] = pos[k][:n]
		}
		return b
	}
	nc := g.NumCells()
	for k := 0; k < g.D; k++ {
		g.sorted[k] = roomFor(g.sorted[k], n)
		b.x[k] = g.sorted[k]
	}
	g.nHalo = roomFor(g.nHalo, nc)
	b.nHalo = g.nHalo
	return b
}

// gatherCells fills the sorted view and the halo counts of the cells
// [clo, chi). Ranges of cells write disjoint ranges of the view.
func (g *Grid) gatherCells(b *build, clo, chi int32) {
	for c := clo; c < chi; c++ {
		lo, hi := g.start[c], g.start[c+1]
		halo := int32(0)
		for _, i := range g.order[lo:hi] {
			if i >= b.nCore {
				halo++
			}
		}
		b.nHalo[c] = halo
		for k := 0; k < g.D; k++ {
			src, dst := b.pos[k], b.x[k][lo:hi]
			for p, i := range g.order[lo:hi] {
				dst[p] = src[i]
			}
		}
	}
}

// sweepCells emits the pairs of the cells [clo, chi): for each cell its
// internal pairs, then one leg per half-stencil neighbour. A leg that
// wraps a dimension carries that dimension's box length as a shift.
//
// No pair is classified one at a time. A cell's run of the sorted view
// is in ascending store index, so its core particles come first and
// its nh halo copies last, and a leg A x B falls into rectangles whose
// links all belong to one list: core A x core B is core, core A x halo
// B and halo A x core B are halo, halo x halo is never tested. Walking
// the rectangles one after the other leaves each list in the order the
// pair-by-pair walk gives it, both lists being filled a-major. By the
// same count PairChecks is known per leg: all pairs but the halo-halo.
func (lb *linkBuilder) sweepCells(clo, chi int32) {
	g := lb.g
	start := g.start
	var zero [geom.MaxD]float64
	for c := clo; c < chi; c++ {
		a0, a1 := int(start[c]), int(start[c+1])
		na := a1 - a0
		if na == 0 {
			continue
		}
		ha := lb.halos(c)
		ah := a1 - ha // where A's halo copies start
		lb.pairs(a0, ah, a0, ah, true, false, &zero)
		lb.pairs(a0, ah, ah, a1, false, true, &zero)
		lb.checks += int64(na*(na-1)/2 - ha*(ha-1)/2)
		cc := g.coords(c)
		for _, off := range g.stencil {
			c2, wrapped, ok := g.neighbour(cc, off)
			if !ok {
				continue
			}
			b0, b1 := int(start[c2]), int(start[c2+1])
			nb := b1 - b0
			if nb == 0 {
				continue
			}
			hb := lb.halos(c2)
			bh := b1 - hb
			var shift [geom.MaxD]float64
			for k := 0; k < g.D; k++ {
				shift[k] = float64(wrapped[k]) * lb.shift[k]
			}
			lb.pairs(a0, ah, b0, bh, false, false, &shift)
			lb.pairs(a0, ah, bh, b1, false, true, &shift)
			lb.pairs(ah, a1, b0, bh, false, true, &shift)
			lb.checks += int64(na*nb - ha*hb)
		}
	}
}

// halos returns the number of halo copies in cell c.
func (lb *linkBuilder) halos(c int32) int {
	if lb.nHalo == nil {
		return 0
	}
	return int(lb.nHalo[c])
}

// pairs emits the in-range pairs of the sorted runs [a0, a1) x [b0, b1)
// — with tri set, the pairs a < b inside [a0, a1) — onto the halo list
// or the core list.
func (lb *linkBuilder) pairs(a0, a1, b0, b1 int, tri, toHalo bool, shift *[geom.MaxD]float64) {
	count := (a1 - a0) * (b1 - b0)
	if tri {
		count = (a1 - a0) * (a1 - a0 - 1) / 2
	}
	if count == 0 {
		return
	}
	// The kernel stores every pair it tests, so it needs room for all
	// of them whether or not they turn out to be links.
	out, n := lb.list(toHalo, count)
	n0 := *n
	if lb.g.D == 2 {
		*n = lb.pairs2(*out, n0, a0, a1, b0, b1, tri, shift[0], shift[1])
	} else {
		*n = lb.pairs3(*out, n0, a0, a1, b0, b1, tri, shift[0], shift[1], shift[2])
	}
	for _, l := range (*out)[n0:*n] {
		lb.dist += int64(l.J - l.I)
	}
}

// minImage is the per-component minimum image of geom.Box.Dist2At.
func minImage(dx, l float64) float64 {
	if dx > l/2 {
		dx -= l
	} else if dx < -l/2 {
		dx += l
	}
	return dx
}

// pairs3 is the three-dimensional pair loop. For each a it runs
// straight down the coordinate slices of the b run with a's own
// coordinates hoisted, and emits a link without a branch: the pair is
// stored at out[n], lower index first, and n moves on only if the pair
// is in range. It returns the new n.
//
// The separation is (xb - xa) + shift per component, then the general
// minimum image if the build asks for it: with a zero shift and no
// image that is the plain difference, and where begin chose a shift it
// is the one subtraction or addition Dist2At's image makes for every
// pair of a wrapped leg — the same operations on the same operands, so
// the same bits, summed in component order as Dist2At sums them.
func (lb *linkBuilder) pairs3(out []Link, n, a0, a1, b0, b1 int, tri bool, sx, sy, sz float64) int {
	x, y, z, idx := lb.x[0], lb.x[1], lb.x[2], lb.idx
	rc2, image := lb.rc2, lb.image
	lx, ly, lz := lb.box.Len[0], lb.box.Len[1], lb.box.Len[2]
	for a := a0; a < a1; a++ {
		if tri {
			b0 = a + 1
		}
		xi, yi, zi, i := x[a], y[a], z[a], idx[a]
		xs := x[b0:b1]
		ys, zs, js := y[b0:b1][:len(xs)], z[b0:b1][:len(xs)], idx[b0:b1][:len(xs)]
		for k, xj := range xs {
			dx := xj - xi + sx
			dy := ys[k] - yi + sy
			dz := zs[k] - zi + sz
			if image {
				dx, dy, dz = minImage(dx, lx), minImage(dy, ly), minImage(dz, lz)
			}
			j := js[k]
			out[n] = Link{min(i, j), max(i, j)}
			if !(dx*dx+dy*dy+dz*dz >= rc2) {
				n++
			}
		}
	}
	return n
}

// pairs2 is pairs3 in two dimensions.
func (lb *linkBuilder) pairs2(out []Link, n, a0, a1, b0, b1 int, tri bool, sx, sy float64) int {
	x, y, idx := lb.x[0], lb.x[1], lb.idx
	rc2, image := lb.rc2, lb.image
	lx, ly := lb.box.Len[0], lb.box.Len[1]
	for a := a0; a < a1; a++ {
		if tri {
			b0 = a + 1
		}
		xi, yi, i := x[a], y[a], idx[a]
		xs := x[b0:b1]
		ys, js := y[b0:b1][:len(xs)], idx[b0:b1][:len(xs)]
		for k, xj := range xs {
			dx := xj - xi + sx
			dy := ys[k] - yi + sy
			if image {
				dx, dy = minImage(dx, lx), minImage(dy, ly)
			}
			j := js[k]
			out[n] = Link{min(i, j), max(i, j)}
			if !(dx*dx+dy*dy >= rc2) {
				n++
			}
		}
	}
	return n
}
