package main

import (
	"fmt"
	"math/rand"
	"time"

	"hybriddem/internal/cell"
	"hybriddem/internal/core"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
	"hybriddem/internal/shm"
	"hybriddem/internal/trace"
)

// refResult is what a reference loop reports: the same steady-window
// figure the end-to-end runs report, the final energies (which must
// equal core.Run's to the bit — see ref_test.go), and the exact counts
// of the steady window, against which span self times are divided.
type refResult struct {
	StepMs []float64 // the steady window step by step, as timeRun reports it
	Epot   float64
	Ekin   float64

	SteadyIters    int
	SteadyRebuilds int            // list rebuilds inside the steady window
	Steady         trace.Counters // counts of the steady window, all ranks and threads
	All            trace.Counters // counts of the whole run, set-up included

	// Shared loops only: links of every list built, set-up included.
	LinksBuilt int64

	// Distributed loops only: totals over ranks at the end of the run.
	NCore, NHalo int
}

// sharedLoop is the benchmark-owned reference step loop of the
// single-address-space modes (serial; openmp with a thread team and a
// selected-atomic updater). It is assembled only from the public calls
// of the layers below core, in the order core's own shared driver makes
// them, with a span around each call — so the per-layer shares it
// yields describe the computation the end-to-end numbers time, while
// everything core adds on top (virtual-clock bookkeeping, hook
// plumbing, the cost model's locality scan) shows up as the ratio
// between the two.
type sharedLoop struct {
	cfg  core.Config
	rec  *recorder
	box  geom.Box
	ps   *particle.Store
	grid *cell.Grid
	list *cell.List
	buf  cell.ListBuffer
	ref  geom.Coords
	team *shm.Team // nil when serial
	upd  *shm.Updater
	tc   trace.Counters

	epot, ekin float64
	rebuilds   int
	linksBuilt int64
}

func newSharedLoop(cfg core.Config, rec *recorder) (*sharedLoop, error) {
	if cfg.Mode != core.Serial && cfg.Mode != core.OpenMP {
		return nil, fmt.Errorf("shared reference loop with mode %v", cfg.Mode)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &sharedLoop{cfg: cfg, rec: rec, box: cfg.Box()}
	rec.begin("setup", iterSetup)
	s.ps = particle.New(cfg.D, cfg.N)
	rng := rand.New(rand.NewSource(cfg.Seed))
	rec.begin("particle.Fill", iterSetup)
	switch {
	case cfg.FillHeight > 0 && cfg.FillHeight < 1:
		particle.FillClustered(s.ps, cfg.N, s.box, cfg.FillHeight, cfg.InitVel, 0, rng)
	case cfg.InitVel > 0:
		particle.FillUniformVel(s.ps, cfg.N, s.box, cfg.InitVel, 0, rng)
	default:
		particle.FillUniform(s.ps, cfg.N, s.box, 0, rng)
	}
	rec.end()
	if cfg.Mode == core.OpenMP {
		s.team = shm.NewTeam(cfg.T, shm.Costs{})
		s.upd = shm.NewUpdater(cfg.Method)
	}
	s.grid = cell.NewGrid(cfg.D, geom.Vec{}, s.box.Len, cfg.RC(), s.box.BC == geom.Periodic)
	s.rebuild(iterSetup)
	rec.end()
	return s, nil
}

func (s *sharedLoop) close() {
	if s.team != nil {
		s.team.Close()
	}
}

// counters returns the run's counts so far, team threads included.
func (s *sharedLoop) counters() trace.Counters {
	tc := s.tc
	if s.team != nil {
		tc.Add(&s.team.TC)
	}
	return tc
}

func (s *sharedLoop) bin(iter int) {
	n := s.cfg.N
	if s.team != nil {
		s.rec.begin("cell.BinParallel", iter)
		s.grid.BinParallel(&s.ps.Pos, n, shm.TeamPool{Team: s.team}, &s.tc)
	} else {
		s.rec.begin("cell.Bin", iter)
		s.grid.Bin(&s.ps.Pos, n, &s.tc)
	}
	s.rec.end()
}

// rebuild is the list reconstruction: bin, reorder the store into cell
// order, bin again, build the links, snapshot the reference positions,
// and (threaded) prepare the updater's conflict table.
func (s *sharedLoop) rebuild(iter int) {
	cfg, rec := &s.cfg, s.rec
	n := cfg.N
	rc := cfg.RC()
	rec.begin("rebuild", iter)
	s.bin(iter)
	if cfg.Reorder {
		rec.begin("particle.Permute", iter)
		s.ps.Permute(s.grid.Order())
		rec.end()
		s.tc.ReorderMoves += int64(n)
		s.bin(iter)
	}
	if s.team != nil {
		rec.begin("cell.BuildLinksParallel", iter)
		s.list = s.grid.BuildLinksParallel(&s.ps.Pos, n, n, rc*rc, s.box, shm.TeamPool{Team: s.team}, &s.tc)
	} else {
		rec.begin("cell.BuildLinksInto", iter)
		s.list = s.grid.BuildLinksInto(&s.buf, &s.ps.Pos, n, n, rc*rc, s.box, &s.tc)
	}
	rec.end()
	for k := 0; k < cfg.D; k++ {
		s.ref[k] = append(s.ref[k][:0], s.ps.Pos[k][:n]...)
	}
	if s.upd != nil {
		rec.begin("shm.Prepare", iter)
		s.upd.Prepare(s.list.Links, s.ps.Len(), n, cfg.T)
		rec.end()
	}
	s.rebuilds++
	s.linksBuilt += int64(len(s.list.Links))
	rec.end()
}

func (s *sharedLoop) step(iter int) {
	cfg, rec := &s.cfg, s.rec
	n := cfg.N
	rec.begin("step", iter)
	if s.team == nil {
		rec.begin("particle.ZeroForces", iter)
		s.ps.ZeroForces()
		rec.end()
		rec.begin("force.Accumulate", iter)
		s.epot = cfg.Spring.Accumulate(s.ps, s.list.Links, n, s.box, 1, &s.tc)
		rec.end()
	} else {
		rec.begin("shm.ZeroForcesParallel", iter)
		shm.ZeroForcesParallel(s.team, s.ps, n)
		rec.end()
		rec.begin("shm.Accumulate", iter)
		s.epot = s.upd.Accumulate(s.team, cfg.Spring, s.ps, s.list.Links, len(s.list.Links), n, s.box)
		rec.end()
	}
	if cfg.Gravity != 0 {
		rec.begin("force.ApplyGravity", iter)
		force.ApplyGravity(s.ps, n, cfg.D-1, cfg.Gravity)
		rec.end()
	}
	if s.team == nil {
		rec.begin("force.Integrate", iter)
		force.Integrate(s.ps, n, cfg.Dt, s.box, force.WrapGlobal, &s.tc)
	} else {
		rec.begin("shm.IntegrateParallel", iter)
		shm.IntegrateParallel(s.team, s.ps, n, cfg.Dt, s.box, force.WrapGlobal)
	}
	rec.end()
	rec.begin("force.KineticEnergy", iter)
	s.ekin = force.KineticEnergy(s.ps, n)
	rec.end()
	rec.begin("particle.MaxDisp2", iter)
	moved := s.ps.MaxDisp2(&s.ref, n, s.box)
	rec.end()
	if skin := cfg.Skin(); moved >= skin*skin {
		s.rebuild(iter)
	}
	rec.end()
}

// state returns the current global state indexed by particle id, the
// form core.Result carries and checkpoint.FromResult consumes.
func (s *sharedLoop) state() (pos, vel []geom.Vec) {
	n := s.cfg.N
	pos = make([]geom.Vec, n)
	vel = make([]geom.Vec, n)
	for i := 0; i < n; i++ {
		pos[s.ps.ID[i]] = s.ps.PosAt(i)
		vel[s.ps.ID[i]] = s.ps.VelAt(i)
	}
	return pos, vel
}

// runSharedRef runs the shared reference loop for the configured
// warm-up plus iters measured iterations and returns the finished loop
// (its team released; the micro-timings reuse its final state) with its
// result.
func runSharedRef(cfg core.Config, iters int, rec *recorder) (*sharedLoop, *refResult, error) {
	rec.begin("run", iterSetup)
	defer rec.end()
	s, err := newSharedLoop(cfg, rec)
	if err != nil {
		return nil, nil, err
	}
	defer s.close()
	for i := 0; i < cfg.Warmup; i++ {
		s.step(iterWarmup + i)
	}
	stamps := make([]time.Duration, 0, iters)
	t0 := time.Now()
	var c0 trace.Counters
	rb0 := 0
	for i := 0; i < iters; i++ {
		s.step(i)
		stamps = append(stamps, time.Since(t0))
		if i == 0 {
			c0, rb0 = s.counters(), s.rebuilds
		}
	}
	res := &refResult{
		StepMs: stepMs(stamps), Epot: s.epot, Ekin: s.ekin,
		SteadyIters: iters - 1, SteadyRebuilds: s.rebuilds - rb0,
		All: s.counters(), LinksBuilt: s.linksBuilt,
	}
	res.Steady = countersSince(res.All, c0)
	return s, res, nil
}
