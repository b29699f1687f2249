package shm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hybriddem/internal/cell"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
)

// viewBlock is one block of TestUpdaterViewEqualsSkin: a list, its view
// pruned at the build positions, and the particles moved since.
type viewBlock struct {
	moved *particle.Store
	list  *cell.List
	view  cell.View
}

// TestUpdaterViewEqualsSkin: an updater walking its blocks'
// contact-range views leaves what it leaves walking the skin lists —
// forces (exactly where the method's order of adds is fixed by the
// lists, Stripe and Transpose at T=2 among them), epot, every thread's
// virtual clock and every counter but LinksTested, which counts the
// views — on each thread's range of each block, split at the core/halo
// boundary, and through the gate of the split-phase path. It does so
// over one block for every method, and over three for every method that
// runs several. The particles have moved by up to just under the slack
// since the prune. A pair hook drops the views: it sees every pair.
func TestUpdaterViewEqualsSkin(t *testing.T) {
	const n, halo = 260, 60
	for _, d := range []int{2, 3} {
		for _, bc := range []geom.Boundary{geom.Periodic, geom.Reflecting} {
			for _, sc := range diffSprings {
				slack := (diffRC(d) - sc.sp.Diameter) / 8 // a quarter of the skin
				cut := sc.sp.Diameter + 2*slack
				var vbs []*viewBlock
				var box geom.Box
				for b := 0; b < 3; b++ {
					ps, list, bx := diffSystem(int64(43+d+100*b), n-40*b, halo, d, bc)
					vb := &viewBlock{moved: ps.Clone(), list: list}
					vb.view.Prune(list, &ps.Pos, bx, cut*cut)
					rng := rand.New(rand.NewSource(int64(d + 10*b)))
					step := 0.99 * slack / math.Sqrt(float64(d))
					for k := 0; k < d; k++ {
						for p := range vb.moved.Pos[k] {
							vb.moved.Pos[k][p] += (2*rng.Float64() - 1) * step
						}
					}
					vbs, box = append(vbs, vb), bx
				}
				for _, nb := range []int{1, 3} {
					for _, m := range append(append([]Method{}, Methods...), Unprotected) {
						if nb > 1 && (m == CriticalReduction || m == Stripe || m == Transpose) {
							continue // one block only
						}
						for _, T := range []int{1, 2, 3} {
							if m == Unprotected && T > 1 {
								continue // racy by definition
							}
							for _, gated := range []bool{false, true} {
								name := fmt.Sprintf("d%d/%v/%s/blocks%d/%v/T%d/gate=%v", d, bc, sc.name, nb, m, T, gated)
								t.Run(name, func(t *testing.T) {
									viewLinks, listLinks := 0, 0
									for _, vb := range vbs[:nb] {
										viewLinks += len(vb.view.Links)
										listLinks += len(vb.list.Links)
									}
									run := func(views bool) regionOutcome {
										tm := NewTeam(T, diffCosts)
										defer tm.Close()
										tm.SetClock(1e-4)
										var blocks []*BlockStore
										var work []*particle.Store
										for i, vb := range vbs[:nb] {
											w := vb.moved.Clone()
											w.ZeroForces()
											work = append(work, w)
											blocks = append(blocks, &BlockStore{PS: w, NCore: n - 40*i,
												Links: vb.list.Links, NCoreLinks: vb.list.NCore, View: &vb.view})
										}
										u := NewUpdater(m)
										u.PrepareBlocks(blocks, T)
										if !gated {
											e := u.AccumulateBlocks(tm, sc.sp, box, views)
											return outcomeOf(tm, nil, e, work...)
										}
										gate := NewHaloGate()
										u.AccumulateStart(tm, sc.sp, box, views, gate)
										gate.Open(3e-4)
										e := u.AccumulateFinish(tm, 2e-4)
										return outcomeOf(tm, gate, e, work...)
									}
									skin, pruned := run(false), run(true)
									if pruned.tc.LinksTested != int64(viewLinks) || skin.tc.LinksTested != skin.tc.LinkVisits {
										t.Fatalf("tested %d links over views of %d, %d over lists of %d",
											pruned.tc.LinksTested, viewLinks, skin.tc.LinksTested, skin.tc.LinkVisits)
									}
									pruned.tc.LinksTested = skin.tc.LinksTested
									pruned.compare(t, skin, deterministic(m, T))
									if skin.tc.Contacts == 0 || viewLinks == listLinks {
										t.Fatalf("degenerate system: %d contacts, views of %d of %d links", skin.tc.Contacts, viewLinks, listLinks)
									}
									var hooked regionOutcome
									withGenericLoop(func() { hooked = run(true) })
									if hooked.tc.LinksTested != hooked.tc.LinkVisits {
										t.Fatalf("a hooked run tested %d of %d links", hooked.tc.LinksTested, hooked.tc.LinkVisits)
									}
								})
							}
						}
					}
				}
			}
		}
	}
}
