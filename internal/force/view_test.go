package force

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hybriddem/internal/cell"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
)

// The kernel over a contact-range view must be the kernel over the skin
// list, bit for bit, on the image of every range a caller walks: the
// thread chunks, the core/halo split with epot threaded from one call
// into the next, the overlap path's D stages and arbitrary ranges; on
// an empty list, a view of every link and a view of none; with a
// coincident pair, a pair at exactly the cut-off, a pair through the
// periodic image and a NaN coordinate; and with every particle moved
// by up to just under the slack since the prune.

// edgeSlack is the view slack of the edge-case systems: a quarter of
// the skin (rc - diam)/2 at rc = 1.5·edgeDiam, as the engine sets it.
// edgeCut = edgeDiam + 2·edgeSlack is 9/128, so a pair set exactly that
// far apart along an axis has r² == cut² exactly.
const (
	edgeSlack = (1.5*edgeDiam - edgeDiam) / 2 / 4
	edgeCut   = edgeDiam + 2*edgeSlack
)

// viewSystem is n particles at random in a periodic unit box with four
// planted pairs — 0 and 1 coincide, 2 and 3 sit exactly edgeCut apart
// along x, 4 and 5 are in contact across the x = 0 face, 6 has a NaN
// coordinate and 7 sits next to it — linked at 1.5 diameters with the
// halo from nCore on. It returns the store with every particle but 6
// then moved by less than edgeSlack, the positions before the move, the
// list, and its view pruned at edgeCut before the move.
func viewSystem(d, n, nCore int, seed int64) (*particle.Store, *geom.Coords, *cell.List, *cell.View, geom.Box) {
	box := geom.NewBox(d, 1, geom.Periodic)
	ps := particle.New(d, n)
	rng := rand.New(rand.NewSource(seed))
	particle.FillUniformVel(ps, n, box, 0.5, 0, rng)
	set := func(p int, x ...float64) {
		for k := 0; k < d; k++ {
			ps.Pos[k][p] = x[k]
		}
	}
	set(0, 0.3, 0.3, 0.3)
	set(1, 0.3, 0.3, 0.3)
	set(2, 0.5, 0.5, 0.5)
	set(3, 0.5+edgeCut, 0.5, 0.5)
	set(4, 0.01, 0.7, 0.2)
	set(5, 0.99, 0.7, 0.2)
	set(6, 0.1+edgeDiam/2, 0.9, 0.1)
	set(7, 0.1, 0.9, 0.1)
	rc := 1.5 * edgeDiam
	g := cell.NewGrid(d, geom.Vec{}, box.Len, rc, true)
	g.Bin(&ps.Pos, n, nil)
	list := g.BuildLinks(&ps.Pos, n, nCore, rc*rc, box, nil)
	ps.Pos[0][6] = math.NaN()
	view := new(cell.View)
	view.Prune(list, &ps.Pos, box, edgeCut*edgeCut)
	ref := ps.Clone().Pos
	step := 0.99 * edgeSlack / math.Sqrt(float64(d))
	for p := 0; p < n; p++ {
		for k := 0; k < d; k++ {
			ps.Pos[k][p] += (2*rng.Float64() - 1) * step
		}
	}
	return ps, &ref, list, view, box
}

// span is one kernel call: skin links [lo, hi) at energy scale, its
// epot seeded with the previous call's (thread) or with zero.
type span struct {
	lo, hi int
	scale  float64
	thread bool
}

// walkSpans runs the batched kernel over spans of list — or over their
// images in view — on a copy of the store, and returns the forces, the
// epot of every call and the contacts of all.
func walkSpans(sp Spring, ps *particle.Store, list *cell.List, view *cell.View, spans []span, nCore int, box geom.Box) (geom.Coords, []float64, int64) {
	work := ps.Clone()
	work.ZeroForces()
	dst := &Sink{Frc: &work.Frc}
	var epots []float64
	var contacts int64
	epot := 0.0
	for _, s := range spans {
		if !s.thread {
			epot = 0
		}
		var c int64
		epot, c = sp.AccumulateRange(dst, work, view.Walk(list.Links, s.lo, s.hi), nCore, box, epot, s.scale)
		epots = append(epots, epot)
		contacts += c
	}
	return work.Frc, epots, contacts
}

// chunkSpans are the spans of T threads' static chunks of n links, each
// split at the core/halo boundary nc: one thread's chunk threads its
// epot from the core call into the halo call.
func chunkSpans(n, nc, T int) []span {
	var out []span
	for t := 0; t < T; t++ {
		lo, hi := t*n/T, (t+1)*n/T
		mid := min(max(nc, lo), hi)
		out = append(out, span{lo, mid, 1, false}, span{mid, hi, 0.5, true})
	}
	return out
}

func TestViewImagesEqualSkinRanges(t *testing.T) {
	const n, nCore = 1200, 900
	sp := Spring{Diameter: edgeDiam, K: 40, Damp: 0.3}
	for _, d := range []int{2, 3} {
		ps, ref, list, view, box := viewSystem(d, n, nCore, int64(3+d))
		nl, nc := len(list.Links), list.NCore
		if len(view.Links) == 0 || len(view.Links) == nl {
			t.Fatalf("d=%d: the view kept %d of %d links", d, len(view.Links), nl)
		}
		// A view of every link, and the links the view left out, whose
		// own view holds none.
		all, none := new(cell.View), new(cell.View)
		all.Prune(list, ref, box, math.Inf(1))
		var apart cell.List
		for q, l := range list.Links {
			if k := view.At(q); k == len(view.Src) || int(view.Src[k]) != q {
				apart.Links = append(apart.Links, l)
			}
		}
		apart.NCore = len(apart.Links) / 2
		none.Prune(&apart, ref, box, edgeCut*edgeCut)
		if len(all.Links) != nl || len(apart.Links) != nl-len(view.Links) || len(none.Links) != 0 {
			t.Fatalf("d=%d: a view at +Inf kept %d of %d links, the %d left out %d", d, len(all.Links), nl, len(apart.Links), len(none.Links))
		}
		rng := rand.New(rand.NewSource(int64(d)))
		cases := map[string][]span{
			"core-halo": {{0, nc, 1, true}, {nc, nl, 0.5, true}},
			"empty":     {{0, 0, 1, true}, {nl, nl, 0.5, true}},
		}
		for T := 1; T <= 3; T++ {
			cases[fmt.Sprintf("chunks-T%d", T)] = chunkSpans(nl, nc, T)
		}
		var stages []span
		for s := 0; s < d; s++ {
			stages = append(stages, span{nc * s / d, nc * (s + 1) / d, 1, false})
		}
		cases["stages"] = append(stages, span{nc, nl, 0.5, false})
		for r := 0; r < 40; r++ {
			lo := rng.Intn(nl + 1)
			hi := lo + rng.Intn(nl+1-lo)
			cases[fmt.Sprintf("random-%d", r)] = []span{{lo, hi, 1, false}}
		}
		views := []struct {
			name string
			list *cell.List
			view *cell.View
		}{{"view", list, view}, {"all", list, all}, {"none", &apart, none}, {"empty", &cell.List{}, new(cell.View)}}
		for _, v := range views {
			if v.name == "empty" {
				v.view.Prune(v.list, ref, box, edgeCut*edgeCut)
			}
			for name, spans := range cases {
				spans = slices.Clone(spans)
				for i := range spans { // clip to the list at hand
					spans[i].lo, spans[i].hi = min(spans[i].lo, len(v.list.Links)), min(spans[i].hi, len(v.list.Links))
				}
				wantF, wantE, wantC := walkSpans(sp, ps, v.list, nil, spans, nCore, box)
				gotF, gotE, gotC := walkSpans(sp, ps, v.list, v.view, spans, nCore, box)
				if gotC != wantC {
					t.Fatalf("d=%d %s/%s: %d contacts over the view, %d over the list", d, v.name, name, gotC, wantC)
				}
				for i := range wantE {
					if math.Float64bits(gotE[i]) != math.Float64bits(wantE[i]) {
						t.Fatalf("d=%d %s/%s: call %d epot %v over the view, %v over the list", d, v.name, name, i, gotE[i], wantE[i])
					}
				}
				for k := 0; k < d; k++ {
					for p := 0; p < n; p++ {
						if math.Float64bits(gotF[k][p]) != math.Float64bits(wantF[k][p]) {
							t.Fatalf("d=%d %s/%s: frc[%d][%d] %v over the view, %v over the list", d, v.name, name, k, p, gotF[k][p], wantF[k][p])
						}
					}
				}
			}
		}
		// The planted pairs: the coincident pair, the image pair and the
		// NaN pair are kept, the pair at exactly the cut-off is not.
		kept := map[cell.Link]bool{}
		for _, l := range view.Links {
			kept[l] = true
		}
		for _, c := range []struct {
			i, j int32
			want bool
		}{{0, 1, true}, {2, 3, false}, {4, 5, true}, {6, 7, true}} {
			l := cell.Link{I: min(c.i, c.j), J: max(c.i, c.j)}
			if kept[l] != c.want {
				t.Errorf("d=%d: pair %d–%d in the view: %v, want %v", d, c.i, c.j, kept[l], c.want)
			}
		}
	}
}
