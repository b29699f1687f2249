package core

import (
	"math/rand"

	"hybriddem/internal/cell"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/machine"
	"hybriddem/internal/particle"
	"hybriddem/internal/shm"
	"hybriddem/internal/trace"
)

// sharedSim is the single-address-space simulation backing both the
// Serial and OpenMP modes: one store, one cell grid over the whole
// (possibly periodic) box, no halos.
type sharedSim struct {
	cfg     Config
	box     geom.Box
	ps      *particle.Store
	grid    *cell.Grid
	list    *cell.List
	listBuf cell.ListBuffer // serial-path link storage, reused across rebuilds
	ref     geom.Coords     // position snapshot at last rebuild, reused
	view    cell.View       // list pruned to contact range at ref
	viewOK  bool            // the next force pass may walk view

	team *shm.Team // nil in Serial mode
	upd  *shm.Updater

	// The store as the team kernels see it, one block of cfg.N cores
	// (OpenMP mode), and that core count as they take it.
	blocks []*shm.BlockStore
	cores  []int

	clock float64 // serial-mode virtual clock
	tc    trace.Counters
	tally

	linkCost, contactCost, updCost, partCost float64
}

// span records a phase interval on the configured timeline (rank 0).
func (s *sharedSim) span(phase string, t0, t1 float64) {
	if tl := s.cfg.Timeline; tl != nil {
		tl.Add(0, s.iter, phase, t0, t1)
	}
}

// newSharedSim builds and initialises the simulation of a validated
// configuration, including the first link-list construction.
func newSharedSim(cfg Config) *sharedSim {
	s := &sharedSim{cfg: cfg, box: cfg.Box()}
	s.ps = particle.New(cfg.D, cfg.N)
	rng := rand.New(rand.NewSource(cfg.Seed))
	switch {
	case cfg.Init != nil:
		cfg.Init.place(func(ref, vel geom.Vec, id int32) { s.ps.Append(ref, vel, id) })
	case cfg.FillHeight > 0 && cfg.FillHeight < 1:
		particle.FillClustered(s.ps, cfg.N, s.box, cfg.FillHeight, cfg.InitVel, 0, rng)
	case cfg.InitVel > 0:
		particle.FillUniformVel(s.ps, cfg.N, s.box, cfg.InitVel, 0, rng)
	default:
		particle.FillUniform(s.ps, cfg.N, s.box, 0, rng)
	}
	if cfg.Mode == OpenMP {
		s.team = shm.NewTeam(cfg.T, shm.Costs{})
		s.upd = shm.NewUpdater(cfg.Method)
		s.blocks = []*shm.BlockStore{{PS: s.ps, NCore: cfg.N, Ref: &s.ref, View: &s.view}}
		s.cores = []int{cfg.N}
	}
	// The whole-box grid geometry never changes, so one grid (and its
	// reused binning scratch) serves every rebuild.
	wrap := s.box.BC == geom.Periodic
	s.grid = cell.NewGrid(cfg.D, geom.Vec{}, s.box.Len, cfg.RC(), wrap)
	s.rebuild()
	// By id, not by slot: another mode's arrangement (an MPI run's, block
	// after block) is not cell-ascending here, and the rebuild re-sorts it.
	// The view stands if the positions are as close to the references as
	// the unbroken run found them.
	if pos := cfg.Init.moved(); pos != nil {
		for i, id := range s.ps.ID[:cfg.N] {
			for k := 0; k < cfg.D; k++ {
				s.ps.Pos[k][i] = pos[id][k]
			}
		}
		s.viewOK = cfg.viewValid(s.ps.MaxDisp2(&s.ref, cfg.N, s.box))
	}
	return s
}

// close releases the thread team's parked workers (no-op in Serial
// mode).
func (s *sharedSim) close() {
	if s.team != nil {
		s.team.Close()
	}
}

// rebuild reconstructs the cell binning and link list, applying the
// optional cache reordering, and rederives the platform costs for the
// new locality.
func (s *sharedSim) rebuild() {
	cfg := &s.cfg
	rc := cfg.RC()
	// In OpenMP mode the list generation itself runs thread-parallel,
	// as in the paper's Section 7 (binning over particles, link
	// generation over cells); the results are bit-identical to the
	// serial path.
	if s.team != nil {
		s.grid.BinParallel(&s.ps.Pos, cfg.N, shm.TeamPool{Team: s.team}, &s.tc)
	} else {
		s.grid.Bin(&s.ps.Pos, cfg.N, &s.tc)
	}
	if cfg.Reorder {
		// The permuted store is in cell order: the binning stands, and
		// the builder reads the store in place.
		s.ps.Permute(s.grid.Order())
		s.tc.ReorderMoves += int64(cfg.N)
		s.grid.Reordered()
	}
	if s.team != nil {
		s.list = s.grid.BuildLinksParallel(&s.ps.Pos, cfg.N, cfg.N, rc*rc, s.box, shm.TeamPool{Team: s.team}, &s.tc)
	} else {
		s.list = s.grid.BuildLinksInto(&s.listBuf, &s.ps.Pos, cfg.N, cfg.N, rc*rc, s.box, &s.tc)
	}
	for k := 0; k < cfg.D; k++ {
		s.ref[k] = append(s.ref[k][:0], s.ps.Pos[k][:cfg.N]...)
	}
	if cut2 := cfg.viewCut2(); cut2 > 0 {
		s.view.Prune(s.list, &s.ps.Pos, s.box, cut2)
		s.viewOK = true
	}
	s.meanDist = s.list.MeanDist()
	s.rebuilds++

	if pf := cfg.Platform; pf != nil {
		cp := machine.CostParams{D: cfg.D, MeanLinkDist: cfg.modelDist(s.meanDist), ActivePerNode: cfg.T}
		ws := cfg.workScale()
		// Particle-array traffic is per particle per pass; amortise it
		// over the links so the kernels can charge a single per-link
		// figure.
		memPerLink := 0.0
		if n := len(s.list.Links); n > 0 {
			memPerLink = pf.ForceMemCost(cp) * float64(cfg.N) / float64(n)
		}
		s.linkCost = (pf.LinkCost(cp) + memPerLink) * ws
		s.contactCost = pf.ContactPairCost(cp) * ws
		s.updCost = pf.UpdateCost(cp) * ws
		s.partCost = pf.ParticleCost(cp) * ws
		if s.team != nil {
			costs := pf.ShmCosts(cfg.T, cp)
			costs.PerLink += memPerLink
			s.team.SetCosts(costs.ScaleWork(ws, cfg.atomicScale()))
		}
	}
	if s.upd != nil {
		s.blocks[0].Links, s.blocks[0].NCoreLinks = s.list.Links, len(s.list.Links)
		s.upd.PrepareBlocks(s.blocks, cfg.T)
	}
}

// nowClock returns the virtual clock (team clock when threaded).
func (s *sharedSim) nowClock() float64 {
	if s.team != nil {
		return s.team.Clock()
	}
	return s.clock
}

// step advances the simulation by one iteration: force over the link
// list, then position update, then the list-validity check with a
// rebuild when the skin is exhausted. It returns the modelled seconds
// attributed to the timed (force+update) portion.
func (s *sharedSim) step() float64 {
	cfg := &s.cfg
	s.iter++
	t0 := s.nowClock()

	// Force phase, over the skin list or, while no particle has moved
	// far enough to bring a pair it left out into contact, its view.
	f0 := s.nowClock()
	links := s.list.Links
	var view *cell.View
	if s.viewOK {
		view = &s.view
		s.viewSteps++
	}
	if s.team == nil {
		s.ps.ZeroForces()
		c0 := s.tc.Contacts
		s.epot = cfg.Spring.AccumulateView(s.ps, view.Walk(links, 0, len(links)), len(links), cfg.N, s.box, 1, &s.tc)
		n := int64(len(links))
		s.clock += float64(n)*s.linkCost +
			float64(s.tc.Contacts-c0)*s.contactCost +
			2*float64(n)*s.updCost
	} else {
		shm.ZeroForcesAllBlocks(s.team, s.blocks)
		s.epot = s.upd.AccumulateBlocks(s.team, cfg.Spring, s.box, s.viewOK)
	}
	if cfg.Gravity != 0 {
		force.ApplyGravity(s.ps, cfg.N, cfg.D-1, cfg.Gravity)
	}
	s.forceTime += s.nowClock() - f0
	s.span("force", f0, s.nowClock())

	// Update phase: one sweep moves the particles, sums the kinetic
	// energy and measures the displacement the validity check below
	// needs — across the team in OpenMP mode, inside the one region.
	u0 := s.nowClock()
	var moved float64
	if s.team == nil {
		s.ekin, moved = force.Sweep(s.ps, &s.ref, 0, cfg.N, cfg.Dt, s.box, force.WrapGlobal, &s.tc)
		s.clock += float64(cfg.N) * s.partCost
	} else {
		s.ekin, moved = shm.SweepAllBlocks(s.team, s.blocks, s.cores, cfg.Dt, s.box, force.WrapGlobal)
	}
	s.updateTime += s.nowClock() - u0
	s.span("update", u0, s.nowClock())

	elapsed := s.nowClock() - t0

	// List validity (outside the timed window, like the paper's
	// excluded link generation). A NaN displacement fails both tests.
	s.viewOK = cfg.viewValid(moved)
	if skin := cfg.Skin(); !(moved < skin*skin) {
		b0 := s.nowClock()
		s.rebuild()
		s.span("rebuild", b0, s.nowClock())
	}
	return elapsed
}

// gather arranges the store as it stands into arr.
func (s *sharedSim) gather(arr *Arrangement, iters int) {
	n := s.cfg.N
	arr.resize(s.cfg.D, n)
	arr.Iters = iters
	copy(arr.Order, s.ps.ID[:n])
	for k := 0; k < s.cfg.D; k++ {
		copy(arr.Pos[k], s.ps.Pos[k][:n])
		copy(arr.Vel[k], s.ps.Vel[k][:n])
		copy(arr.Ref[k], s.ref[k][:n])
	}
}

// The rest of the stepper interface: its own leader, nobody to agree
// with, no fault injection.
func (s *sharedSim) stats() *tally        { return &s.tally }
func (s *sharedSim) rank() int            { return 0 }
func (s *sharedSim) agree(stop bool) bool { return stop }
func (s *sharedSim) faultPoint(int)       {}

func (s *sharedSim) report() part {
	p := part{tally: s.tally, clock: s.nowClock(), nlinks: len(s.list.Links), tc: s.tc}
	if s.team != nil {
		p.tc.Add(&s.team.TC)
	}
	return p
}
