package cell

import "hybriddem/internal/geom"

// View is the inner level of a two-level contact search: the
// order-preserving subsequence of a List's links whose endpoints lay
// closer than a cut-off when the view was pruned. The List stays the
// skin list — what the virtual clock prices, what the conflict tables
// and the thread chunks are cut from — and a caller walks the view in
// its place only while no link left out can have closed to contact.
//
// Every range of the list has an image in the view: the kept links of
// [lo, hi) are Links[At(lo):At(hi)], a contiguous run, so the images of
// adjacent ranges are adjacent and the kernel meets the kept links of
// any partition of the list in list order. Its storage is reused from
// prune to prune.
type View struct {
	Links []Link
	Src   []int32 // Src[v] is the index in the list of Links[v], ascending
}

// Prune rewrites v as the links of l with !(r² >= cut2), r² measured at
// pos under box exactly as the pair kernels measure it (minimum image
// where the box wraps). A NaN r² is kept, as the kernels keep it in
// contact. The pass stores every link and advances the cursor by the
// test, with no branch on the distance; the storage grows only when
// the list has outgrown it, to the list's length plus an eighth.
func (v *View) Prune(l *List, pos *geom.Coords, box geom.Box, cut2 float64) {
	n := len(l.Links)
	if cap(v.Links) < n {
		v.Links = make([]Link, n+n/8)
		v.Src = make([]int32, n+n/8)
	}
	out, src := v.Links[:n], v.Src[:n]
	h := box.HalfLengths()
	var k int
	switch box.D {
	case 2:
		k = prune2(out, src, l.Links, pos[0], pos[1], &h, &box.Len, cut2)
	case 3:
		k = prune3(out, src, l.Links, pos[0], pos[1], pos[2], &h, &box.Len, cut2)
	default:
		for q, lk := range l.Links {
			out[k], src[k] = lk, int32(q)
			k += inside(box.Dist2At(pos, lk.I, lk.J), cut2)
		}
	}
	v.Links, v.Src = out[:k], src[:k]
}

// inside is !(r2 >= cut2) as 0 or 1, a SETcc rather than a branch; a
// NaN r2 is inside.
func inside(r2, cut2 float64) int {
	var in int
	if !(r2 >= cut2) {
		in = 1
	}
	return in
}

// image returns the minimum-image displacement d on an axis of edge l
// and half edge h, as the pair kernels take it.
func image(d, h, l float64) float64 {
	if d > h {
		return d - l
	}
	if d < -h {
		return d + l
	}
	return d
}

// prune2 and prune3 are Prune's pass, component by component the
// pair kernels' first pass (internal/force near2/near3): a component
// goes through image only when its square reaches the half edge's.
// Every q < len(links) keeps out[k] and src[k] in range, since k <= q.
func prune2(out []Link, src []int32, links []Link, x0, x1 []float64, h, edge *geom.Vec, cut2 float64) int {
	h0, h1, l0, l1 := h[0], h[1], edge[0], edge[1]
	hh0, hh1 := h0*h0, h1*h1
	out, src = out[:len(links)], src[:len(links)]
	k := 0
	for q, l := range links {
		i, j := l.I, l.J
		dx := x0[j] - x0[i]
		qx := dx * dx
		if qx >= hh0 {
			dx = image(dx, h0, l0)
			qx = dx * dx
		}
		dy := x1[j] - x1[i]
		qy := dy * dy
		if qy >= hh1 {
			dy = image(dy, h1, l1)
			qy = dy * dy
		}
		out[k], src[k] = l, int32(q)
		k += inside(qx+qy, cut2)
	}
	return k
}

func prune3(out []Link, src []int32, links []Link, x0, x1, x2 []float64, h, edge *geom.Vec, cut2 float64) int {
	h0, h1, h2 := h[0], h[1], h[2]
	l0, l1, l2 := edge[0], edge[1], edge[2]
	hh0, hh1, hh2 := h0*h0, h1*h1, h2*h2
	out, src = out[:len(links)], src[:len(links)]
	k := 0
	for q, l := range links {
		i, j := l.I, l.J
		dx := x0[j] - x0[i]
		qx := dx * dx
		if qx >= hh0 {
			dx = image(dx, h0, l0)
			qx = dx * dx
		}
		dy := x1[j] - x1[i]
		qy := dy * dy
		if qy >= hh1 {
			dy = image(dy, h1, l1)
			qy = dy * dy
		}
		dz := x2[j] - x2[i]
		qz := dz * dz
		if qz >= hh2 {
			dz = image(dz, h2, l2)
			qz = dz * dz
		}
		out[k], src[k] = l, int32(q)
		k += inside(qx+qy+qz, cut2)
	}
	return k
}

// At returns the image in the view of position q of the list: the
// number of kept links among the list's first q.
func (v *View) At(q int) int {
	lo, hi := 0, len(v.Src)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int(v.Src[m]) < q {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Walk returns what a kernel walks for links[lo:hi] of the list the
// view was pruned from: the image of the range, or, for a nil view,
// the range itself.
func (v *View) Walk(links []Link, lo, hi int) []Link {
	if v == nil {
		return links[lo:hi]
	}
	return v.Links[v.At(lo):v.At(hi)]
}
