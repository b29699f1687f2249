package cell

import (
	"math"
	"math/rand"
	"testing"

	"hybriddem/internal/geom"
)

// TestPruneIsTheFilter holds Prune to the written-out filter it
// replaces: the links of the list with !(r² >= cut2), r² as Dist2At
// measures it, in list order, each with its index in the list — in one,
// two and three dimensions, periodic and not, with a halo, through
// reused storage that grows and shrinks, and with a NaN coordinate,
// whose links are kept. At and Walk map every range of the list to the
// run of the view that holds its kept links.
func TestPruneIsTheFilter(t *testing.T) {
	var v View // reused across every case
	for _, d := range []int{1, 2, 3} {
		for _, bc := range []geom.Boundary{geom.Periodic, geom.Reflecting} {
			for _, n := range []int{0, 2, 300, 40} {
				box := geom.NewBox(d, 1, bc)
				pos := randomPositions(n, d, box, int64(n+d))
				const rc = 0.2
				g := NewGrid(d, geom.Vec{}, box.Len, rc, bc == geom.Periodic)
				g.Bin(&pos, n, nil)
				l := g.BuildLinks(&pos, n, n-n/4, rc*rc, box, nil)
				if n > 0 {
					pos[0][n/2] = math.NaN()
				}
				for _, cut := range []float64{0, 0.05, 0.13, rc, math.Inf(1)} {
					v.Prune(l, &pos, box, cut*cut)
					var want []Link
					var src []int32
					for q, lk := range l.Links {
						if !(box.Dist2At(&pos, lk.I, lk.J) >= cut*cut) {
							want = append(want, lk)
							src = append(src, int32(q))
						}
					}
					if len(v.Links) != len(want) || len(v.Src) != len(want) {
						t.Fatalf("d=%d %v n=%d cut=%g: %d links, %d indices, want %d", d, bc, n, cut, len(v.Links), len(v.Src), len(want))
					}
					for k := range want {
						if v.Links[k] != want[k] || v.Src[k] != src[k] {
							t.Fatalf("d=%d %v n=%d cut=%g: view link %d is %v from %d, want %v from %d", d, bc, n, cut, k, v.Links[k], v.Src[k], want[k], src[k])
						}
					}
					rng := rand.New(rand.NewSource(int64(d)))
					for r := 0; r < 20; r++ {
						lo := rng.Intn(len(l.Links) + 1)
						hi := lo + rng.Intn(len(l.Links)+1-lo)
						var kept []Link
						for k, q := range src {
							if int(q) >= lo && int(q) < hi {
								kept = append(kept, want[k])
							}
						}
						got := v.Walk(l.Links, lo, hi)
						if len(got) != len(kept) {
							t.Fatalf("d=%d %v n=%d cut=%g: the image of [%d, %d) holds %d links, want %d", d, bc, n, cut, lo, hi, len(got), len(kept))
						}
						for k := range kept {
							if got[k] != kept[k] {
								t.Fatalf("d=%d %v n=%d cut=%g: the image of [%d, %d) differs at %d", d, bc, n, cut, lo, hi, k)
							}
						}
						if skin := (*View)(nil).Walk(l.Links, lo, hi); len(skin) != hi-lo {
							t.Fatalf("a nil view walks %d links of [%d, %d)", len(skin), lo, hi)
						}
					}
				}
			}
		}
	}
}
