package main

import (
	"fmt"
	"reflect"
	"time"

	"hybriddem/internal/core"
	"hybriddem/internal/decomp"
	"hybriddem/internal/force"
	"hybriddem/internal/mp"
	"hybriddem/internal/shm"
	"hybriddem/internal/trace"
)

// countersSince returns now - then, field by field.
func countersSince(now, then trace.Counters) trace.Counters {
	d := now
	dv, tv := reflect.ValueOf(&d).Elem(), reflect.ValueOf(then)
	for i := 0; i < dv.NumField(); i++ {
		dv.Field(i).SetInt(dv.Field(i).Int() - tv.Field(i).Int())
	}
	return d
}

// rankLoop is one rank of the benchmark-owned reference step loop of
// the distributed modes (mpi; mpism with a shared window over the node
// group; hybrid with a thread team and one updater per block). Like
// sharedLoop it makes only public layer calls, in the order of core's
// synchronous step — halo refresh, per-block force pass, integrate,
// energy allreduce, validity vote, rebuild — with a span around each.
// The synchronous exchange is deliberate: every wait is then inside
// exactly one call, so a span is a layer's whole cost; what core's
// split-phase overlap buys on top appears as a driver ratio below 1.
type rankLoop struct {
	cfg *core.Config
	rec *recorder
	c   *mp.Comm
	dm  *decomp.Domain

	team   *shm.Team // nil unless hybrid
	upds   []*shm.Updater
	stores []*shm.BlockStore
	cores  []int

	energy     [2]float64
	epot, ekin float64
	rebuilds   int
}

func newRankLoop(cfg *core.Config, c *mp.Comm, l *decomp.Layout, rec *recorder) *rankLoop {
	r := &rankLoop{cfg: cfg, rec: rec, c: c}
	rec.begin("setup", iterSetup)
	r.dm = decomp.NewDomain(l, c, false) // no damping, no bonds: halos carry positions only
	if cfg.Mode == core.MPIsm {
		if g := c.SplitNode(); g.Size() > 1 {
			r.dm.SetWin(mp.NewWin(g, mp.WinCosts{}))
		}
	}
	if cfg.Mode == core.Hybrid {
		r.team = shm.NewTeam(cfg.T, shm.Costs{})
		for range r.dm.Blocks {
			r.upds = append(r.upds, shm.NewUpdater(cfg.Method))
		}
	}
	rec.begin("decomp.Fill", iterSetup)
	r.dm.FillClustered(cfg.N, cfg.Seed, cfg.InitVel, cfg.FillHeight)
	rec.end()
	r.rebuild(iterSetup)
	rec.end()
	return r
}

func (r *rankLoop) close() {
	if r.team != nil {
		r.team.Close()
	}
}

// counters returns this rank's counts so far: domain, messages, team.
func (r *rankLoop) counters() trace.Counters {
	tc := r.dm.TC
	tc.Add(&r.c.TC)
	if r.team != nil {
		tc.Add(&r.team.TC)
	}
	return tc
}

func (r *rankLoop) rebuild(iter int) {
	cfg, rec, dm := r.cfg, r.rec, r.dm
	rec.begin("rebuild", iter)
	rec.begin("decomp.Rebuild", iter)
	dm.Rebuild(cfg.Reorder)
	rec.end()
	if r.team != nil {
		// Core counts only change at a rebuild, so the block views the
		// team kernels take are refreshed here, as are the conflict
		// tables, which belong to the link lists just rebuilt.
		r.stores, r.cores = r.stores[:0], r.cores[:0]
		for _, b := range dm.Blocks {
			r.stores = append(r.stores, &shm.BlockStore{PS: b.PS, NCore: b.NCore})
			r.cores = append(r.cores, b.NCore)
		}
		rec.begin("shm.Prepare", iter)
		for i, b := range dm.Blocks {
			r.upds[i].Prepare(b.List.Links, b.PS.Len(), b.NCore, cfg.T)
		}
		rec.end()
	}
	r.rebuilds++
	rec.end()
}

func (r *rankLoop) step(iter int) {
	cfg, rec, dm := r.cfg, r.rec, r.dm
	box, plain := cfg.Box(), dm.PlainBox()
	rec.begin("step", iter)

	rec.begin("decomp.RefreshHalos", iter)
	dm.RefreshHalos()
	rec.end()

	// Force pass over every owned block: core links at full energy,
	// halo links at half (the neighbouring block counts the other half).
	epot := 0.0
	if r.team == nil {
		for _, b := range dm.Blocks {
			rec.begin("particle.ZeroForces", iter)
			b.PS.ZeroForces()
			rec.end()
			rec.begin("force.Accumulate", iter)
			epot += cfg.Spring.Accumulate(b.PS, b.List.CoreLinks(), b.NCore, plain, 1, &dm.TC)
			epot += cfg.Spring.Accumulate(b.PS, b.List.HaloLinks(), b.NCore, plain, 0.5, &dm.TC)
			rec.end()
			if cfg.Gravity != 0 {
				rec.begin("force.ApplyGravity", iter)
				force.ApplyGravity(b.PS, b.NCore, cfg.D-1, cfg.Gravity)
				rec.end()
			}
		}
	} else {
		rec.begin("shm.ZeroForcesAllBlocks", iter)
		shm.ZeroForcesAllBlocks(r.team, r.stores)
		rec.end()
		for i, b := range dm.Blocks {
			rec.begin("shm.Accumulate", iter)
			epot += r.upds[i].Accumulate(r.team, cfg.Spring, b.PS, b.List.Links, b.List.NCore, b.NCore, plain)
			rec.end()
		}
		if cfg.Gravity != 0 {
			rec.begin("force.ApplyGravity", iter)
			for _, b := range dm.Blocks {
				force.ApplyGravity(b.PS, b.NCore, cfg.D-1, cfg.Gravity)
			}
			rec.end()
		}
	}

	ekin := 0.0
	if r.team == nil {
		for _, b := range dm.Blocks {
			rec.begin("force.Integrate", iter)
			force.Integrate(b.PS, b.NCore, cfg.Dt, box, force.WrapDeferred, &dm.TC)
			rec.end()
			rec.begin("force.KineticEnergy", iter)
			ekin += force.KineticEnergy(b.PS, b.NCore)
			rec.end()
		}
	} else {
		rec.begin("shm.IntegrateAllBlocks", iter)
		shm.IntegrateAllBlocks(r.team, r.stores, r.cores, cfg.Dt, box, force.WrapDeferred)
		rec.end()
		rec.begin("force.KineticEnergy", iter)
		for _, b := range dm.Blocks {
			ekin += force.KineticEnergy(b.PS, b.NCore)
		}
		rec.end()
	}

	rec.begin("mp.AllreduceInPlace", iter)
	r.energy[0], r.energy[1] = epot, ekin
	r.c.AllreduceInPlace(r.energy[:], mp.Sum)
	r.epot, r.ekin = r.energy[0], r.energy[1]
	rec.end()

	rec.begin("decomp.ListsValid", iter)
	valid := dm.ListsValid(cfg.Skin())
	rec.end()
	if !valid {
		r.rebuild(iter)
	}
	rec.end()
}

// runDistRef runs the distributed reference loop on cfg.P ranks over
// the free network for the configured warm-up plus iters measured
// iterations; recs holds one recorder per rank.
func runDistRef(cfg core.Config, iters int, recs []*recorder) (res *refResult, err error) {
	if cfg.Mode != core.MPI && cfg.Mode != core.MPIsm && cfg.Mode != core.Hybrid {
		return nil, fmt.Errorf("distributed reference loop with mode %v", cfg.Mode)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l, err := decomp.NewLayout(cfg.Box(), cfg.RC(), cfg.P, cfg.BlocksPerProc)
	if err != nil {
		return nil, err
	}
	// A rank that panics (a layer rejecting its input) takes the run
	// down through mp.Run; report it as this run's error.
	defer func() {
		if e := recover(); e != nil {
			res, err = nil, fmt.Errorf("a rank of the %v reference loop panicked: %v", cfg.Mode, e)
		}
	}()
	type rankOut struct {
		steady, all  trace.Counters
		rebuilds     int
		ncore, nhalo int
	}
	outs := make([]rankOut, cfg.P)
	res = &refResult{SteadyIters: iters - 1}
	mp.Run(cfg.P, mp.ZeroNetwork{}, func(c *mp.Comm) {
		rec := recs[c.Rank()]
		rec.begin("run", iterSetup)
		defer rec.end()
		r := newRankLoop(&cfg, c, l, rec)
		defer r.close()
		for i := 0; i < cfg.Warmup; i++ {
			r.step(iterWarmup + i)
		}
		c.Barrier()
		var stamps []time.Duration
		if c.Rank() == 0 {
			stamps = make([]time.Duration, 0, iters)
		}
		t0 := time.Now()
		var c0 trace.Counters
		rb0 := 0
		for i := 0; i < iters; i++ {
			r.step(i)
			if c.Rank() == 0 {
				stamps = append(stamps, time.Since(t0))
			}
			if i == 0 {
				c0, rb0 = r.counters(), r.rebuilds
			}
		}
		o := &outs[c.Rank()]
		o.all = r.counters()
		o.steady = countersSince(o.all, c0)
		o.rebuilds = r.rebuilds - rb0
		for _, b := range r.dm.Blocks {
			o.ncore += b.NCore
			o.nhalo += b.NumHalo()
		}
		if c.Rank() == 0 {
			res.Epot, res.Ekin = r.epot, r.ekin
			res.StepMs = stepMs(stamps)
		}
	})
	for i := range outs {
		res.Steady.Add(&outs[i].steady)
		res.All.Add(&outs[i].all)
		res.NCore += outs[i].ncore
		res.NHalo += outs[i].nhalo
	}
	res.SteadyRebuilds = outs[0].rebuilds // the vote is collective: every rank rebuilds together
	return res, nil
}
