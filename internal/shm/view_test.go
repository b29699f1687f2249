package shm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hybriddem/internal/cell"
	"hybriddem/internal/geom"
)

// TestUpdaterViewEqualsSkin: an updater walking a contact-range view
// leaves what it leaves walking the skin list — forces (exactly where
// the method's order of adds is fixed by the list, Stripe and Transpose
// at T=2 among them), epot, every thread's virtual clock and every
// counter but LinksTested, which counts the view — on each thread's
// chunk, split at the core/halo boundary, and through the gate of the
// split-phase path. The particles have moved by up to just under the
// slack since the prune. A pair hook drops the view: it sees every pair.
func TestUpdaterViewEqualsSkin(t *testing.T) {
	const n, halo = 260, 60
	for _, d := range []int{2, 3} {
		for _, bc := range []geom.Boundary{geom.Periodic, geom.Reflecting} {
			ps, list, box := diffSystem(int64(43+d), n, halo, d, bc)
			for _, sc := range diffSprings {
				slack := (diffRC(d) - sc.sp.Diameter) / 8 // a quarter of the skin
				cut := sc.sp.Diameter + 2*slack
				var view cell.View
				view.Prune(list, &ps.Pos, box, cut*cut)
				moved := ps.Clone()
				rng := rand.New(rand.NewSource(int64(d)))
				step := 0.99 * slack / math.Sqrt(float64(d))
				for k := 0; k < d; k++ {
					for p := range moved.Pos[k] {
						moved.Pos[k][p] += (2*rng.Float64() - 1) * step
					}
				}
				for _, m := range Methods {
					for _, T := range []int{1, 2, 3} {
						for _, gated := range []bool{false, true} {
							name := fmt.Sprintf("d%d/%v/%s/%v/T%d/gate=%v", d, bc, sc.name, m, T, gated)
							t.Run(name, func(t *testing.T) {
								run := func(v *cell.View) regionOutcome {
									tm := NewTeam(T, diffCosts)
									defer tm.Close()
									tm.SetClock(1e-4)
									u := NewUpdater(m)
									u.Prepare(list.Links, moved.Len(), n, T)
									work := moved.Clone()
									work.ZeroForces()
									if !gated {
										e := u.AccumulateView(tm, sc.sp, work, list.Links, v, list.NCore, n, box)
										return outcomeOf(tm, nil, e, work)
									}
									gate := NewHaloGate()
									u.AccumulateStart(tm, sc.sp, work, list.Links, v, list.NCore, n, box, gate)
									gate.Open(3e-4)
									e := u.AccumulateFinish(tm, 2e-4)
									return outcomeOf(tm, gate, e, work)
								}
								skin, pruned := run(nil), run(&view)
								if pruned.tc.LinksTested != int64(len(view.Links)) || skin.tc.LinksTested != skin.tc.LinkVisits {
									t.Fatalf("tested %d links over the view of %d, %d over the list of %d",
										pruned.tc.LinksTested, len(view.Links), skin.tc.LinksTested, skin.tc.LinkVisits)
								}
								pruned.tc.LinksTested = skin.tc.LinksTested
								pruned.compare(t, skin, deterministic(m, T))
								if skin.tc.Contacts == 0 || len(view.Links) == len(list.Links) {
									t.Fatalf("degenerate system: %d contacts, view of %d of %d links", skin.tc.Contacts, len(view.Links), len(list.Links))
								}
								var hooked regionOutcome
								withGenericLoop(func() { hooked = run(&view) })
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
