package shm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hybriddem/internal/cell"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
	"hybriddem/internal/trace"
)

// The differential kernel tests pin the one contract the shared pair
// kernel rests on: for every sink the updaters can describe, the
// dimension-specialised loops of internal/force and the generic
// Disp/Sub/PairID loop are the same function, bit for bit — forces,
// energy, every counter and every thread's virtual clock. The generic
// loop is reached the only way the code allows without bonds: an
// identity PairForceHook.

// diffCosts makes every term of the virtual-clock charge distinct and
// non-zero, HaloWork included, so a link or contact booked on the wrong
// side of the core/halo boundary moves a clock.
var diffCosts = Costs{
	ForkJoin: 3e-6, Barrier: 5e-7, Critical: 7e-7, AtomicTaken: 1.1e-7,
	ReductionWord: 1.3e-9, PerLink: 1.7e-8, PerContact: 1.9e-8,
	PerUpdate: 2.3e-9, PerParticle: 2.9e-8, HaloWork: 0.37,
}

// diffSystem builds a random store of n core particles and halo more,
// under the given boundary condition, with a valid link list.
func diffSystem(seed int64, n, halo, d int, bc geom.Boundary) (*particle.Store, *cell.List, geom.Box) {
	box := geom.NewBox(d, 1.0, bc)
	ps := particle.New(d, n+halo)
	particle.FillUniformVel(ps, n+halo, box, 0.3, 0, rand.New(rand.NewSource(seed)))
	rc := diffRC(d)
	g := cell.NewGrid(d, geom.Vec{}, box.Len, rc, bc == geom.Periodic)
	g.Bin(&ps.Pos, n+halo, nil)
	return ps, g.BuildLinks(&ps.Pos, n+halo, n, rc*rc, box, nil), box
}

// diffRC is diffSystem's cut-off in d dimensions.
func diffRC(d int) float64 {
	if d == 3 {
		return 0.2
	}
	return 0.13
}

// regionOutcome is everything one force region leaves behind.
type regionOutcome struct {
	frc    []geom.Coords // one per block
	epot   float64
	tc     trace.Counters
	clocks []float64 // per thread, at the join
	team   float64
	stall  float64
}

func outcomeOf(tm *Team, gate *HaloGate, epot float64, stores ...*particle.Store) regionOutcome {
	o := regionOutcome{epot: epot, tc: tm.TC, team: tm.Clock()}
	for _, ps := range stores {
		var c geom.Coords
		for k := 0; k < ps.D; k++ {
			c[k] = append([]float64(nil), ps.Frc[k]...)
		}
		o.frc = append(o.frc, c)
	}
	for _, th := range tm.threads {
		o.clocks = append(o.clocks, th.clock)
	}
	if gate != nil {
		o.stall = gate.MaxStall()
	}
	return o
}

// compare demands equality of two outcomes; the forces are exact when
// the order of adds into a particle is a function of the list alone,
// and within a few ulps of the largest force otherwise.
func (o regionOutcome) compare(t *testing.T, g regionOutcome, exactFrc bool) {
	t.Helper()
	if o.epot != g.epot {
		t.Errorf("epot %v, generic %v", o.epot, g.epot)
	}
	if o.tc != g.tc {
		t.Errorf("counters\n  %+v\ngeneric\n  %+v", o.tc, g.tc)
	}
	if o.team != g.team || o.stall != g.stall {
		t.Errorf("team clock %v stall %v, generic %v %v", o.team, o.stall, g.team, g.stall)
	}
	for i := range o.clocks {
		if o.clocks[i] != g.clocks[i] {
			t.Errorf("thread %d clock %v, generic %v", i, o.clocks[i], g.clocks[i])
		}
	}
	for b := range o.frc {
		for k, c := range o.frc[b] {
			for i := range c {
				a, w := c[i], g.frc[b][k][i]
				if a != w && (exactFrc || math.Abs(a-w) > 1e-12*(1+math.Abs(w))) {
					t.Fatalf("block %d particle %d component %d: force %v, generic %v", b, i, k, a, w)
				}
			}
		}
	}
}

// withGenericLoop runs f with an identity hook installed.
func withGenericLoop(f func()) {
	PairForceHook = func(m Method, idI, idJ int32, fi geom.Vec) geom.Vec { return fi }
	defer func() { PairForceHook = nil }()
	f()
}

type springCase struct {
	name string
	sp   force.Spring
}

var diffSprings = []springCase{
	{"elastic", force.Spring{Diameter: 0.09, K: 40}},
	{"damped", force.Spring{Diameter: 0.09, K: 40, Damp: 0.5}},
	{"hertz", force.Spring{Diameter: 0.09, K: 40, Damp: 0.2, Hertz: true}},
}

// deterministic reports whether method m at T threads adds into every
// particle in an order fixed by the list.
func deterministic(m Method, T int) bool {
	return T == 1 || m == Stripe || m == Transpose
}

func TestUpdaterSpecialisedEqualsGeneric(t *testing.T) {
	const n, halo = 260, 60
	methods := append(append([]Method{}, Methods...), Unprotected)
	for _, d := range []int{2, 3} {
		for _, bc := range []geom.Boundary{geom.Periodic, geom.Reflecting} {
			ps, list, box := diffSystem(int64(41+d), n, halo, d, bc)
			if list.NCore == 0 || list.NCore == len(list.Links) {
				t.Fatalf("d=%d %v: want core and halo links, have %d/%d", d, bc, list.NCore, len(list.Links))
			}
			// The locality figure is the builder's, not the kernel's.
			if list.DistSum <= 0 || list.MeanDist() != float64(list.DistSum)/float64(len(list.Links)) {
				t.Fatalf("d=%d %v: locality figure DistSum %d, MeanDist %g over %d links", d, bc, list.DistSum, list.MeanDist(), len(list.Links))
			}
			for _, sc := range diffSprings {
				for _, m := range methods {
					for _, T := range []int{1, 2, 3} {
						if m == Unprotected && T > 1 {
							continue // racy by definition
						}
						for _, gated := range []bool{false, true} {
							name := fmt.Sprintf("d%d/%v/%s/%v/T%d/gate=%v", d, bc, sc.name, m, T, gated)
							t.Run(name, func(t *testing.T) {
								run := func() regionOutcome {
									tm := NewTeam(T, diffCosts)
									defer tm.Close()
									tm.SetClock(1e-4)
									u := NewUpdater(m)
									work := ps.Clone()
									work.ZeroForces()
									if !gated {
										u.Prepare(list.Links, ps.Len(), n, T)
										e := u.Accumulate(tm, sc.sp, work, list.Links, list.NCore, n, box)
										return outcomeOf(tm, nil, e, work)
									}
									u.PrepareBlocks([]*BlockStore{{PS: work, NCore: n, Links: list.Links, NCoreLinks: list.NCore}}, T)
									gate := NewHaloGate()
									u.AccumulateStart(tm, sc.sp, box, false, gate)
									gate.Open(3e-4)
									e := u.AccumulateFinish(tm, 2e-4)
									return outcomeOf(tm, gate, e, work)
								}
								spec := run()
								var gen regionOutcome
								withGenericLoop(func() { gen = run() })
								spec.compare(t, gen, deterministic(m, T))
								if spec.tc.Contacts == 0 {
									t.Fatalf("degenerate system: %+v", spec.tc)
								}
							})
						}
					}
				}
			}
		}
	}
}

func TestFusedSpecialisedEqualsGeneric(t *testing.T) {
	// Four blocks of unequal size, so that at T=2 and T=3 thread chunks
	// of the concatenated list start and end inside blocks.
	sizes := [][2]int{{150, 30}, {90, 25}, {210, 40}, {60, 20}}
	for _, d := range []int{2, 3} {
		var stores []*particle.Store
		var lists []*cell.List
		var box geom.Box
		for i, sz := range sizes {
			ps, list, b := diffSystem(int64(71+10*d+i), sz[0], sz[1], d, geom.Reflecting)
			stores, lists, box = append(stores, ps), append(lists, list), b
		}
		for _, sc := range diffSprings {
			for _, m := range []Method{Atomic, SelectedAtomic, Unprotected} {
				for _, T := range []int{1, 2, 3} {
					if m == Unprotected && T > 1 {
						continue
					}
					for _, gated := range []bool{false, true} {
						name := fmt.Sprintf("d%d/%s/%v/T%d/gate=%v", d, sc.name, m, T, gated)
						t.Run(name, func(t *testing.T) {
							run := func() regionOutcome {
								tm := NewTeam(T, diffCosts)
								defer tm.Close()
								blocks := make([]*BlockStore, len(stores))
								work := make([]*particle.Store, len(stores))
								for i, ps := range stores {
									work[i] = ps.Clone()
									work[i].ZeroForces()
									blocks[i] = &BlockStore{PS: work[i], Links: lists[i].Links, NCoreLinks: lists[i].NCore, NCore: sizes[i][0]}
								}
								fu := NewUpdater(m)
								fu.PrepareBlocks(blocks, T)
								straddles := 0
								for t := 1; t < T; t++ {
									lo, _ := chunk(fu.offsets[len(blocks)], T, t)
									for i := range blocks {
										if lo > fu.offsets[i] && lo < fu.offsets[i+1] {
											straddles++
										}
									}
								}
								if straddles != T-1 {
									t.Fatalf("%d of %d chunk boundaries fall inside a block", straddles, T-1)
								}
								if !gated {
									return outcomeOf(tm, nil, fu.AccumulateBlocks(tm, sc.sp, box, false), work...)
								}
								gate := NewHaloGate()
								fu.AccumulateStart(tm, sc.sp, box, false, gate)
								gate.Open(3e-4)
								return outcomeOf(tm, gate, fu.AccumulateFinish(tm, 2e-4), work...)
							}
							spec := run()
							var gen regionOutcome
							withGenericLoop(func() { gen = run() })
							spec.compare(t, gen, T == 1)
						})
					}
				}
			}
		}
	}
}

// TestBondedRunTakesGenericLoop: a bond table must route the updater
// to the generic loop (the specialised ones know nothing of bonds).
// The reference is a plain per-link PairID loop written out here.
func TestBondedRunTakesGenericLoop(t *testing.T) {
	const n, halo = 200, 40
	for _, d := range []int{2, 3} {
		ps, list, box := diffSystem(int64(91+d), n, halo, d, geom.Periodic)
		sp := force.Spring{Diameter: 0.09, K: 40, Damp: 0.5}
		bonds := force.NewBondTable(n+halo, 4, 25, 0.3)
		bonded := 0
		for li := 0; li < len(list.Links) && bonded < 40; li += 7 {
			l := list.Links[li]
			if bonds.Add(ps.ID[l.I], ps.ID[l.J], 0.08) == nil {
				bonded++
			}
		}
		if bonded == 0 {
			t.Fatal("no bonds placed")
		}
		sp.Bonds = bonds

		ref := ps.Clone()
		ref.ZeroForces()
		eref := 0.0
		for li, l := range list.Links {
			fi, e, _ := sp.PairID(ps.ID[l.I], ps.ID[l.J], box.DispAt(&ps.Pos, l.I, l.J), geom.SubAt(&ps.Vel, l.J, l.I, d), d)
			if li >= list.NCore {
				e *= 0.5
			}
			eref += e
			for k := 0; k < d; k++ {
				ref.Frc[k][l.I] += fi[k]
				if int(l.J) < n {
					ref.Frc[k][l.J] -= fi[k]
				}
			}
		}

		unbonded := sp
		unbonded.Bonds = nil
		for _, m := range []Method{SelectedAtomic, Transpose} {
			tm := NewTeam(1, Costs{})
			u := NewUpdater(m)
			u.Prepare(list.Links, ps.Len(), n, 1)
			work := ps.Clone()
			work.ZeroForces()
			e := u.Accumulate(tm, sp, work, list.Links, list.NCore, n, box)
			plain := ps.Clone()
			plain.ZeroForces()
			u.Accumulate(tm, unbonded, plain, list.Links, list.NCore, n, box)
			tm.Close()
			if e != eref {
				t.Errorf("d=%d %v: bonded epot %v, reference %v", d, m, e, eref)
			}
			differs := false
			for k := 0; k < d; k++ {
				for i := range work.Frc[k] {
					if work.Frc[k][i] != ref.Frc[k][i] {
						t.Fatalf("d=%d %v: particle %d component %d: %v, reference %v", d, m, i, k, work.Frc[k][i], ref.Frc[k][i])
					}
					differs = differs || work.Frc[k][i] != plain.Frc[k][i]
				}
			}
			if !differs {
				t.Errorf("d=%d %v: bonds changed no force", d, m)
			}
		}
	}
}
