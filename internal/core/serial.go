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
	perm    []int32         // canonicalise's inverse of the ID array, reused

	team *shm.Team // nil in Serial mode
	upd  *shm.Updater

	f32 force.F32Scratch // single-precision mirrors for the Float32 path

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

// newSharedSim builds and initialises the simulation, including the
// first link-list construction.
func newSharedSim(cfg Config) (*sharedSim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &sharedSim{cfg: cfg, box: cfg.Box()}
	s.ps = particle.New(cfg.D, cfg.N)
	rng := rand.New(rand.NewSource(cfg.Seed))
	switch {
	case cfg.Init != nil:
		for i := 0; i < cfg.N; i++ {
			s.ps.Append(cfg.Init.Pos[i], cfg.Init.Vel[i], int32(i))
		}
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
	}
	// The whole-box grid geometry never changes, so one grid (and its
	// reused binning scratch) serves every rebuild.
	wrap := s.box.BC == geom.Periodic
	s.grid = cell.NewGrid(cfg.D, geom.Vec{}, s.box.Len, cfg.RC(), wrap)
	s.rebuild()
	return s, nil
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
		s.upd.Prepare(s.list.Links, s.ps.Len(), cfg.N, cfg.T)
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

	// Force phase.
	f0 := s.nowClock()
	if s.team == nil {
		s.ps.ZeroForces()
		c0 := s.tc.Contacts
		if cfg.Float32 {
			s.epot = cfg.Spring.AccumulateF32(s.ps, s.list.Links, cfg.N, s.box, 1, &s.f32, &s.tc)
		} else {
			s.epot = cfg.Spring.Accumulate(s.ps, s.list.Links, cfg.N, s.box, 1, &s.tc)
		}
		n := int64(len(s.list.Links))
		s.clock += float64(n)*s.linkCost +
			float64(s.tc.Contacts-c0)*s.contactCost +
			2*float64(n)*s.updCost
	} else {
		shm.ZeroForcesParallel(s.team, s.ps, cfg.N)
		s.epot = s.upd.Accumulate(s.team, cfg.Spring, s.ps, s.list.Links, len(s.list.Links), cfg.N, s.box)
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
		s.ekin, moved = shm.SweepParallel(s.team, s.ps, &s.ref, cfg.N, cfg.Dt, s.box, force.WrapGlobal)
	}
	s.updateTime += s.nowClock() - u0
	s.span("update", u0, s.nowClock())

	elapsed := s.nowClock() - t0

	// List validity (outside the timed window, like the paper's
	// excluded link generation).
	skin := cfg.Skin()
	if moved >= skin*skin {
		b0 := s.nowClock()
		s.rebuild()
		s.span("rebuild", b0, s.nowClock())
	}
	return elapsed
}

// gather returns the current state indexed by particle ID.
func (s *sharedSim) gather() (pos, vel []geom.Vec) {
	n := s.cfg.N
	pos = make([]geom.Vec, n)
	vel = make([]geom.Vec, n)
	scatterByID(pos, vel, &s.ps.Pos, &s.ps.Vel, s.ps.ID[:n], s.box)
	return pos, vel
}

// canonicalise puts the store back in particle-ID order, as newSharedSim
// builds it from an Init, and rebuilds: the session continues on the
// bits of a run resumed from a checkpoint of this state.
func (s *sharedSim) canonicalise() {
	if s.perm == nil {
		s.perm = make([]int32, s.cfg.N)
	}
	for i, id := range s.ps.ID[:s.cfg.N] {
		s.perm[id] = int32(i)
	}
	s.ps.Permute(s.perm)
	s.rebuild()
}

// The rest of the stepper interface: its own leader, nobody to agree
// with, no fault injection, no rollback snapshots.
func (s *sharedSim) stats() *tally             { return &s.tally }
func (s *sharedSim) rank() int                 { return 0 }
func (s *sharedSim) agree(stop bool) bool      { return stop }
func (s *sharedSim) faultPoint(int)            {}
func (s *sharedSim) offer(*snapCollector, int) {}

func (s *sharedSim) report() part {
	p := part{tally: s.tally, clock: s.nowClock(), nlinks: len(s.list.Links), tc: s.tc}
	if s.team != nil {
		p.tc.Add(&s.team.TC)
	}
	return p
}
