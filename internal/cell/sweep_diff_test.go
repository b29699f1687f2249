package cell

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hybriddem/internal/geom"
	"hybriddem/internal/trace"
)

// refBuilder is the per-pair builder the sweep replaced, written out
// here as the order reference: one add per candidate pair, the distance
// through geom.Box.Dist2At on the caller's storage, core and halo links
// staged apart and concatenated. The sweep must emit element for
// element what this emits.
type refBuilder struct {
	pos        *geom.Coords
	nCore      int32
	rc2        float64
	box        geom.Box
	core, halo []Link
	checks     int64
}

func (rb *refBuilder) add(i, j int32) {
	if i >= rb.nCore && j >= rb.nCore {
		return
	}
	rb.checks++
	if rb.box.Dist2At(rb.pos, i, j) >= rb.rc2 {
		return
	}
	if i >= rb.nCore || j >= rb.nCore {
		if i >= rb.nCore {
			i, j = j, i
		}
		rb.halo = append(rb.halo, Link{i, j})
	} else {
		if i > j {
			i, j = j, i
		}
		rb.core = append(rb.core, Link{i, j})
	}
}

func referenceLinks(g *Grid, pos *geom.Coords, n, nCore int, rc2 float64, box geom.Box) (*List, int64) {
	rb := refBuilder{pos: pos, nCore: int32(nCore), rc2: rc2, box: box}
	if g.degenerate {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				rb.add(int32(i), int32(j))
			}
		}
	} else {
		stencil := halfStencil(g.D)
		for c := int32(0); c < int32(g.NumCells()); c++ {
			ps := g.CellParticles(c)
			for a := 0; a < len(ps); a++ {
				for b := a + 1; b < len(ps); b++ {
					rb.add(ps[a], ps[b])
				}
			}
			cc := g.coords(c)
			for _, off := range stencil {
				var nb [geom.MaxD]int
				ok := true
				for i := 0; i < g.D; i++ {
					v := cc[i] + off[i]
					if g.Wrap {
						if v < 0 {
							v += g.N[i]
						} else if v >= g.N[i] {
							v -= g.N[i]
						}
					} else if v < 0 || v >= g.N[i] {
						ok = false
						break
					}
					nb[i] = v
				}
				if !ok {
					continue
				}
				c2 := g.flatten(nb)
				if c2 == c {
					continue
				}
				for _, i := range ps {
					for _, j := range g.CellParticles(c2) {
						rb.add(i, j)
					}
				}
			}
		}
	}
	list := &List{Links: append(append([]Link{}, rb.core...), rb.halo...), NCore: len(rb.core)}
	for _, l := range list.Links {
		d := int64(l.I) - int64(l.J)
		if d < 0 {
			d = -d
		}
		list.DistSum += d
	}
	return list, rb.checks
}

// diffFill draws n positions inside [origin, origin+span): uniform;
// clustered into the bottom fifth of the last dimension, which leaves
// most cells empty and a few crowded; or striped, which leaves every
// other cell column of the first dimension empty.
func diffFill(fill string, n, d int, origin, span geom.Vec, cells int, rng *rand.Rand) geom.Coords {
	pos := geom.MakeCoords(d, n)
	for i := 0; i < n; i++ {
		var v geom.Vec
		for k := 0; k < d; k++ {
			v[k] = rng.Float64()
		}
		switch fill {
		case "clustered":
			v[d-1] *= 0.2
		case "striped":
			col := 2 * rng.Intn((cells+1)/2)
			v[0] = (float64(col) + 0.999*v[0]) / float64(cells)
		}
		for k := 0; k < d; k++ {
			v[k] = origin[k] + v[k]*span[k]
		}
		pos.Append(v, d)
	}
	return pos
}

// TestSweepMatchesPerPairBuilder is the differential gate of the
// sweep: over dimensions, boundary conditions, core/halo splits, grid
// sizes (3 and 4 cells a side are where the minimum image still matters
// on legs that do not wrap; 1 and 2 are the degenerate box when
// periodic) and fills, serial and across a team, the list equals the
// per-pair builder's link for link, with the same core split, pair
// checks, bin count and distance sum, and covers exactly the
// brute-force pair set.
func TestSweepMatchesPerPairBuilder(t *testing.T) {
	for _, d := range []int{2, 3} {
		for _, bc := range []geom.Boundary{geom.Periodic, geom.Reflecting} {
			for _, cells := range []int{1, 2, 3, 4, 7} {
				for _, fill := range []string{"uniform", "clustered", "striped"} {
					n := 160
					if d == 3 && cells == 7 {
						n = 600
					}
					for split, nCore := range []int{n, n / 2, 0} {
						name := fmt.Sprintf("d%d/%v/cells%d/%s/nCore%d", d, bc, cells, fill, nCore)
						box := geom.NewBox(d, 1.0, bc)
						// Just over `cells` cells a side: the floor in
						// NewGrid then gives exactly that many.
						rc := 1.0 / (float64(cells) + 0.3)
						g := NewGrid(d, geom.Vec{}, box.Len, rc, bc == geom.Periodic)
						if got := g.N[0]; got != cells && !g.degenerate {
							t.Fatalf("%s: grid has %d cells a side", name, got)
						}
						rng := rand.New(rand.NewSource(int64(1000*d + 100*cells + 10*split + len(fill))))
						pos := diffFill(fill, n, d, geom.Vec{}, box.Len, cells, rng)
						diffCheck(t, name, g, &pos, n, nCore, rc*rc, box, true)
					}
				}
			}
		}
	}
}

// TestSweepMatchesOffBoxGrids covers the grid/box pairings outside the
// whole-box case: a block's extended region under the plain box, as
// decomp builds it, and a non-wrapping grid under a periodic box, where
// every pair takes the general minimum image (and the search misses the
// pairs across the faces, for the reference as for the sweep).
func TestSweepMatchesOffBoxGrids(t *testing.T) {
	for _, d := range []int{2, 3} {
		origin, span := geom.Vec{0.25, 0.4, 0.1}, geom.Vec{0.5, 0.35, 0.6}
		rng := rand.New(rand.NewSource(int64(d)))
		n := 300
		pos := diffFill("uniform", n, d, origin, span, 1, rng)
		rc := 0.07
		g := NewGrid(d, origin, span, rc, false)
		plain := geom.Box{D: d, Len: geom.NewBox(d, 1.0, geom.Periodic).Len, BC: geom.Reflecting}
		diffCheck(t, fmt.Sprintf("d%d/block", d), g, &pos, n, 2*n/3, rc*rc, plain, true)

		box := geom.NewBox(d, 1.0, geom.Periodic)
		whole := diffFill("uniform", n, d, geom.Vec{}, box.Len, 1, rng)
		g = NewGrid(d, geom.Vec{}, box.Len, 0.11, false)
		diffCheck(t, fmt.Sprintf("d%d/periodic-nowrap", d), g, &whole, n, n, 0.11*0.11, box, false)
	}
}

// diffCheck compares every builder entry point with the reference on
// one configuration and, where the search is complete, the reference
// with the brute-force pair set.
func diffCheck(t *testing.T, name string, g *Grid, pos *geom.Coords, n, nCore int, rc2 float64, box geom.Box, complete bool) {
	t.Helper()
	var tcBin trace.Counters
	g.Bin(pos, n, &tcBin)
	want, wantChecks := referenceLinks(g, pos, n, nCore, rc2, box)

	check := func(how string, got *List, tc trace.Counters) {
		t.Helper()
		if got.NCore != want.NCore || len(got.Links) != len(want.Links) {
			t.Fatalf("%s %s: %d links (%d core), reference %d (%d core)", name, how, len(got.Links), got.NCore, len(want.Links), want.NCore)
		}
		for i := range want.Links {
			if got.Links[i] != want.Links[i] {
				t.Fatalf("%s %s: link %d is %v, reference %v", name, how, i, got.Links[i], want.Links[i])
			}
		}
		if tc.PairChecks != wantChecks || tc.LinkBuilds != 1 {
			t.Errorf("%s %s: %d pair checks in %d builds, reference %d in 1", name, how, tc.PairChecks, tc.LinkBuilds, wantChecks)
		}
		if tc.CellBinOps != int64(n) {
			t.Errorf("%s %s: %d bin ops for %d particles", name, how, tc.CellBinOps, n)
		}
		if got.DistSum != want.DistSum {
			t.Errorf("%s %s: distance sum %d, reference %d", name, how, got.DistSum, want.DistSum)
		}
	}

	tc := tcBin
	check("serial", g.BuildLinks(pos, n, nCore, rc2, box, &tc), tc)
	for _, T := range []int{1, 2, 3} {
		par := NewGrid(g.D, g.Origin, g.Span, g.CellLen[0]*0.999, g.Wrap)
		if par.N != g.N || par.degenerate != g.degenerate {
			t.Fatalf("%s: rebuilt grid has %v cells, want %v", name, par.N, g.N)
		}
		var tc trace.Counters
		par.BinParallel(pos, n, fakePool{T}, &tc)
		if !reflect.DeepEqual(par.Order(), g.Order()) || par.identity != g.identity {
			t.Fatalf("%s T=%d: parallel binning diverges", name, T)
		}
		check(fmt.Sprintf("parallel T=%d", T), par.BuildLinksParallel(pos, n, nCore, rc2, box, fakePool{T}, &tc), tc)
	}

	if !complete {
		return
	}
	brute := BruteLinks(pos.Vecs(n, g.D), n, nCore, rc2, box)
	gs, dup := PairSet(want.Links)
	if dup != nil {
		t.Fatalf("%s: duplicate link %v", name, *dup)
	}
	bs, _ := PairSet(brute.Links)
	if len(gs) != len(bs) || want.NCore != brute.NCore {
		t.Fatalf("%s: %d links (%d core), brute force %d (%d core)", name, len(gs), want.NCore, len(bs), brute.NCore)
	}
	for p := range bs {
		if !gs[p] {
			t.Fatalf("%s: pair %v missing from the list", name, p)
		}
	}
}

// TestSweepSkipsGatherAfterReorder: once the store has been permuted
// into cell order the builder reads it in place — and still emits the
// reference list — whether the grid was told (Reordered) or found out
// by binning again, serially or across a team.
func TestSweepSkipsGatherAfterReorder(t *testing.T) {
	box := geom.NewBox(3, 1.0, geom.Periodic)
	n, rc := 900, 0.12
	pos := randomPositions(n, 3, box, 11)
	g := NewGrid(3, geom.Vec{}, box.Len, rc, true)
	g.Bin(&pos, n, nil)
	if g.identity {
		t.Fatal("random positions binned as already ordered")
	}
	sorted := geom.MakeCoords(3, n)
	for _, i := range g.Order() {
		sorted.Append(pos.At(int(i), 3), 3)
	}
	g.Reordered()
	if b := g.begin(&sorted, n, n, rc*rc, box); b.nHalo != nil || &b.x[0][0] != &sorted[0][0] {
		t.Fatal("the builder gathers an ordered store")
	}
	told := g.BuildLinks(&sorted, n, n, rc*rc, box, nil)

	again := NewGrid(3, geom.Vec{}, box.Len, rc, true)
	again.Bin(&sorted, n, nil)
	par := NewGrid(3, geom.Vec{}, box.Len, rc, true)
	par.BinParallel(&sorted, n, fakePool{3}, nil)
	if !again.identity || !par.identity {
		t.Fatal("binning an ordered store did not find the identity")
	}
	want, _ := referenceLinks(again, &sorted, n, n, rc*rc, box)
	for how, got := range map[string]*List{
		"reordered":  told,
		"rebinned":   again.BuildLinks(&sorted, n, n, rc*rc, box, nil),
		"rebinned/T": par.BuildLinksParallel(&sorted, n, n, rc*rc, box, fakePool{3}, nil),
	} {
		if got.NCore != want.NCore || !reflect.DeepEqual(got.Links, want.Links) {
			t.Errorf("%s: list differs from the reference", how)
		}
	}
}
