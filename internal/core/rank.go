package core

import (
	"hybriddem/internal/cell"
	"hybriddem/internal/decomp"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/machine"
	"hybriddem/internal/mp"
	"hybriddem/internal/shm"
)

// rankSim is one rank's state in an MPI, MPIsm or Hybrid run: its
// share of the block-cyclic decomposition plus, in hybrid mode, the
// rank's thread team — "one process per SMP ... one thread per CPU" —
// or, in mpism mode, the rank's shared window over its node group.
type rankSim struct {
	cfg *Config
	c   *mp.Comm
	dm  *decomp.Domain

	team *shm.Team // nil in MPI mode

	// upds are the hybrid force updaters, refreshed at rebuild: one per
	// owned block, or under cfg.Fused one over all of them (the paper's
	// Section 11 single loop over all links in all blocks).
	upds []*shm.Updater

	// Per-step scratch, refreshed at rebuild so the step loop itself
	// allocates nothing: block views for the team kernels, the
	// two-element energy reduction buffer, the rebuild-vote buffer of
	// the overlapped path, and the gate that holds hybrid threads at the
	// core/halo link boundary until the split-phase exchange lands.
	stores []*shm.BlockStore
	cores  []int
	energy [2]float64
	vote   [1]float64
	stop   [1]float64    // the Stop verdict's allreduce buffer
	gate   *shm.HaloGate // hybrid overlap only

	// viewOK says the blocks' contact-range views, pruned at the last
	// rebuild, may stand in for their lists in the next force pass.
	viewOK bool

	linkCost, contactCost, updCost, partCost float64

	// gather's buffers, kept between calls: a sending rank's message
	// floats, and on rank 0 its own blocks by id.
	gatherF []float64
	owned   []*decomp.Block

	tally
}

// span records a phase interval on the configured timeline.
func (r *rankSim) span(phase string, t0, t1 float64) {
	if tl := r.cfg.Timeline; tl != nil {
		tl.Add(r.c.Rank(), r.iter, phase, t0, t1)
	}
}

// activePerNode returns the number of busy CPUs sharing one SMP
// node's memory system under this run shape.
func activePerNode(cfg *Config, pf *machine.Platform) int {
	if pf == nil {
		return 1
	}
	switch cfg.Mode {
	case Hybrid:
		return cfg.T
	case MPI, MPIsm:
		if cfg.P < pf.CPUsPerNode {
			return cfg.P
		}
		return pf.CPUsPerNode
	default:
		return cfg.T
	}
}

func newRankSim(cfg *Config, c *mp.Comm, l *decomp.Layout) *rankSim {
	r := &rankSim{cfg: cfg, c: c}
	// A checkpointed ORB decomposition resumes where it left off: apply
	// the tree's ownership to a private clone of the layout (the shared
	// original must stay immutable) and seed the domain's adopted tree
	// so the first epoch applies hysteresis against it instead of
	// re-adopting from the cyclic deal. A tree whose shape no longer
	// matches (e.g. after a degrade-and-recover changed P) is ignored.
	seedTree := cfg.Rebalance == RebalanceORB && cfg.InitTree != nil && cfg.InitTree.Matches(l)
	if seedTree {
		owned := l.Clone()
		cfg.InitTree.ApplyOwners(owned)
		l = owned
	}
	r.dm = decomp.NewDomain(l, c, cfg.needsHaloVel())
	r.dm.Rebalance = cfg.Rebalance
	r.dm.RebalanceHyst = cfg.RebalanceHyst
	if seedTree {
		r.dm.SeedORBTree(cfg.InitTree)
	}
	if pf := cfg.Platform; pf != nil {
		// Exchange traffic is surface-proportional: both the pack
		// work and the modelled wire bytes scale with
		// (ModelN/N)^((D-1)/D).
		r.dm.PackCost = pf.PackCost() * cfg.surfScale()
		c.SetByteScale(cfg.surfScale())
		if cfg.NaivePack {
			r.dm.PackFactor = 3 // gather + wire copy + scatter
		}
		if cfg.SelfMessage {
			ss := cfg.surfScale()
			r.dm.SelfMsgCost = func(bytes int) float64 {
				return pf.IntraLat + float64(bytes)*ss/pf.IntraBw
			}
		}
	}
	if cfg.Mode == MPIsm {
		// MPI+MPI_sm: attach a shared window over this rank's node
		// group so same-node halo legs travel as fenced window loads.
		// A rank alone on its node (odd P, or single-CPU nodes like the
		// T3E's) skips the window and keeps the pure message path.
		if g := c.SplitNode(); g.Size() > 1 {
			var wc mp.WinCosts
			if pf := cfg.Platform; pf != nil {
				wc = pf.WinCosts()
			}
			r.dm.SetWin(mp.NewWin(g, wc))
		}
	}
	if cfg.Mode == Hybrid {
		r.team = shm.NewTeam(cfg.T, shm.Costs{})
		if cfg.T > 1 {
			// The blocks' lists are built across the team; the virtual
			// clock does not price link generation (DESIGN §17).
			r.dm.Team = shm.UnmodelledPool{Team: r.team}
		}
		r.gate = shm.NewHaloGate()
		if cfg.Watchdog > 0 {
			r.gate.SetDeadline(cfg.Watchdog)
		}
	}
	r.dm.ViewCut2 = cfg.viewCut2()
	return r
}

// rebuild runs the full list-invalidation sequence and rederives the
// modelled costs for the new list's locality.
func (r *rankSim) rebuild() {
	r.dm.Rebuild(r.cfg.Reorder)
	cfg := r.cfg
	r.rebuilds++
	r.viewOK = r.dm.ViewCut2 > 0
	if t0, t1, moved := r.dm.LastRebalance(); moved {
		phase := "rebalance"
		if cfg.Rebalance == RebalanceORB {
			phase = "orb"
		}
		r.span(phase, t0, t1)
	}

	// Locality metric across this rank's blocks.
	var sum, n int64
	for _, b := range r.dm.Blocks {
		sum += b.List.DistSum
		n += int64(len(b.List.Links))
	}
	if n > 0 {
		r.meanDist = float64(sum) / float64(n)
	}

	if pf := cfg.Platform; pf != nil {
		cp := machine.CostParams{D: cfg.D, MeanLinkDist: cfg.modelDist(r.meanDist), ActivePerNode: activePerNode(cfg, pf)}
		ws := cfg.workScale()
		// Amortise the per-particle force-pass memory traffic over
		// this rank's links (halo copies are read too).
		parts := 0
		for _, b := range r.dm.Blocks {
			parts += b.PS.Len()
		}
		memPerLink := 0.0
		if n := r.dm.NumLinks(); n > 0 {
			memPerLink = pf.ForceMemCost(cp) * float64(parts) / float64(n)
		}
		r.linkCost = (pf.LinkCost(cp) + memPerLink) * ws
		r.contactCost = pf.ContactPairCost(cp) * ws
		r.updCost = pf.UpdateCost(cp) * ws
		r.partCost = pf.ParticleCost(cp) * ws
		if r.team != nil {
			costs := pf.ShmCosts(cfg.T, cp)
			costs.PerLink += memPerLink
			costs = costs.ScaleWork(ws, cfg.atomicScale())
			costs.HaloWork = cfg.surfScale() / ws
			r.team.SetCosts(costs)
		}
	}

	if r.team != nil {
		r.refreshBlockViews()
		// The rebalancer changes this rank's block count; spare
		// updaters wait beyond len for it to grow back.
		n := len(r.stores)
		if cfg.Fused {
			n = 1
		}
		r.upds = r.upds[:cap(r.upds)]
		for len(r.upds) < n {
			r.upds = append(r.upds, nil)
		}
		r.upds = r.upds[:n]
		for i, u := range r.upds {
			if u == nil {
				r.upds[i] = shm.NewUpdater(cfg.Method)
			}
		}
		if cfg.Fused {
			r.upds[0].PrepareBlocks(r.stores, cfg.T)
		} else {
			for i, u := range r.upds {
				u.PrepareBlocks(r.stores[i:i+1], cfg.T)
			}
		}
	}
}

// countView counts a step whose force pass walks the blocks' views.
func (r *rankSim) countView() {
	if r.viewOK {
		r.viewSteps++
	}
}

// setView decides, from the reduced largest squared displacement since
// the last rebuild, whether the next force pass walks the views.
func (r *rankSim) setView(moved float64) {
	r.viewOK = r.dm.ViewCut2 > 0 && r.cfg.viewValid(moved)
}

// viewOf returns what the force pass walks for block b this step: its
// view while the reduced displacement keeps it valid, else nil, the
// skin list.
func (r *rankSim) viewOf(b *decomp.Block) *cell.View {
	if r.viewOK {
		return &b.View
	}
	return nil
}

// refreshBlockViews resyncs the cached per-block views the team
// kernels consume. Core counts and lists only change at rebuild
// (migration), so the step loop can hand these to the kernels and the
// updaters without per-step allocation.
func (r *rankSim) refreshBlockViews() {
	nb := len(r.dm.Blocks)
	for len(r.stores) < nb {
		r.stores = append(r.stores, &shm.BlockStore{})
	}
	r.stores = r.stores[:nb]
	if cap(r.cores) < nb {
		r.cores = make([]int, nb)
	}
	r.cores = r.cores[:nb]
	for i, b := range r.dm.Blocks {
		*r.stores[i] = shm.BlockStore{PS: b.PS, NCore: b.NCore, Ref: &b.RefPos,
			Links: b.List.Links, NCoreLinks: b.List.NCore, View: &b.View}
		r.cores[i] = b.NCore
	}
}

// close releases the hybrid thread team's parked workers (no-op in
// MPI mode).
func (r *rankSim) close() {
	if r.team != nil {
		r.team.Close()
	}
}

// clock returns the rank's modelled time: the team clock in hybrid
// mode (regions advance it past the comm clock), otherwise the comm
// clock. The two are kept in step by syncClocks.
func (r *rankSim) clock() float64 {
	if r.team != nil {
		return r.team.Clock()
	}
	return r.c.Clock()
}

// syncClocks folds communication waits into the team clock and vice
// versa so a single timeline covers both runtimes.
func (r *rankSim) syncClocks() {
	if r.team == nil {
		return
	}
	if r.c.Clock() > r.team.Clock() {
		r.team.SetClock(r.c.Clock())
	} else {
		r.c.SetClock(r.team.Clock())
	}
}

// step advances one iteration and returns the modelled seconds of the
// timed window (halo swap + force + energy + update).
func (r *rankSim) step() float64 {
	if r.cfg.Overlap {
		return r.stepOverlap()
	}
	return r.stepSync()
}

// stepSync is the synchronous baseline: complete the halo swap, then
// run the whole force loop, then the blocking energy allreduce and the
// blocking rebuild vote. The modelled step time is comm + compute.
func (r *rankSim) stepSync() float64 {
	cfg := r.cfg
	dm := r.dm
	box := cfg.Box()
	plain := dm.PlainBox()
	r.syncClocks()
	t0 := r.clock()

	r.iter++

	r.countView()

	// Halo swap.
	c0 := r.clock()
	dm.RefreshHalos()
	r.syncClocks()
	r.commTime += r.clock() - c0
	r.span("comm", c0, r.clock())

	// Force phase over every owned block: core links at full energy,
	// halo links at half.
	f0 := r.clock()
	epot := 0.0
	if r.team == nil {
		// Halo-link counts are a surface effect, so their charges get
		// the surface/bulk weight when modelling a larger system.
		hw := cfg.surfScale() / cfg.workScale()
		for _, b := range dm.Blocks {
			b.PS.ZeroForces()
			v, links, nc := r.viewOf(b), b.List.Links, b.List.NCore
			c0 := dm.TC.Contacts
			epot += cfg.Spring.AccumulateView(b.PS, v.Walk(links, 0, nc), nc, b.NCore, plain, 1, &dm.TC)
			cCore := dm.TC.Contacts - c0
			epot += cfg.Spring.AccumulateView(b.PS, v.Walk(links, nc, len(links)), len(links)-nc, b.NCore, plain, 0.5, &dm.TC)
			cHalo := dm.TC.Contacts - c0 - cCore
			nCore := float64(nc)
			nHalo := float64(len(links) - nc)
			eff := nCore + nHalo*hw
			r.c.Compute(eff*r.linkCost +
				(float64(cCore)+float64(cHalo)*hw)*r.contactCost +
				2*eff*r.updCost)
			if cfg.Gravity != 0 {
				force.ApplyGravity(b.PS, b.NCore, cfg.D-1, cfg.Gravity)
			}
		}
	} else {
		shm.ZeroForcesAllBlocks(r.team, r.stores)
		for _, u := range r.upds {
			epot += u.AccumulateBlocks(r.team, cfg.Spring, plain, r.viewOK)
		}
		r.applyGravityBlocks()
	}
	r.syncClocks()
	r.forceTime += r.clock() - f0
	r.span("force", f0, r.clock())

	// Update phase: integrate core particles of every block.
	u0 := r.clock()
	ekin, moved := r.integrate(box)
	r.syncClocks()
	r.updateTime += r.clock() - u0
	r.span("update", u0, r.clock())

	// Energy: reduced within the team by the region join, over blocks
	// by the rank, and over ranks by the collective (in place, into
	// the rank's persistent two-element buffer). The collective gets
	// its own phase bucket, not update's: a rank blocked here is
	// waiting on the slowest rank, and folding that wait into the
	// update phase would hide exactly the per-rank load imbalance the
	// phase split (and Result.Imbalance) exists to expose. It is kept
	// out of comm too, so the comm column stays a pure halo-exchange
	// measure (what the overlap figures difference).
	e0 := r.clock()
	r.energy[0], r.energy[1] = epot, ekin
	r.c.AllreduceInPlace(r.energy[:], mp.Sum)
	r.epot, r.ekin = r.energy[0], r.energy[1]
	r.syncClocks()
	r.collTime += r.clock() - e0
	r.span("coll", e0, r.clock())

	elapsed := r.clock() - t0

	// Validity check + rebuild live outside the timed window. The
	// reduced displacement decides the view too, so every rank walks
	// the same kind of list.
	b0 := r.clock()
	valid, global := r.dm.DisplacementValid(moved, cfg.Skin())
	r.setView(global)
	if !valid {
		r.rebuild()
		r.syncClocks()
		r.span("rebuild", b0, r.clock())
	}
	r.syncClocks()
	return elapsed
}

// stepOverlap is the split-phase step: post the halo exchange, run the
// core-link force pass while the messages are in flight, complete the
// exchange, then the halo-link pass; the energy allreduce is posted
// together with the rebuild vote so the two collectives overlap. The
// per-particle accumulation order is identical to stepSync (zero, core
// links in list order, halo links in list order, gravity), so the
// trajectory is bit-identical — only the modelled timeline changes,
// charging max(comm, core compute) where the synchronous step pays the
// sum.
func (r *rankSim) stepOverlap() float64 {
	cfg := r.cfg
	dm := r.dm
	box := cfg.Box()
	plain := dm.PlainBox()
	r.syncClocks()
	t0 := r.clock()

	r.iter++

	// Split-phase halo swap wrapped around the force phase.
	r.countView()
	var epot float64
	if r.team == nil {
		epot = r.overlapForceMPI(plain)
	} else {
		epot = r.overlapForceBlocks(plain)
	}

	// Update phase: integrate core particles of every block.
	u0 := r.clock()
	ekin, moved := r.integrate(box)
	r.syncClocks()
	r.updateTime += r.clock() - u0
	r.span("update", u0, r.clock())

	// Post the energy allreduce and the rebuild vote back to back;
	// waiting the energy covers most of the vote's latency, hiding the
	// second collective behind the first. As in stepSync the wait is
	// charged to the collective bucket, not update — it is the
	// imbalance wait on the slowest rank.
	e0 := r.clock()
	r.energy[0], r.energy[1] = epot, ekin
	eReq := r.c.IAllreduceInPlace(r.energy[:], mp.Sum)
	r.vote[0] = moved
	vReq := r.c.IAllreduceInPlace(r.vote[:], mp.Max)
	eReq.Wait()
	r.epot, r.ekin = r.energy[0], r.energy[1]
	r.syncClocks()
	r.collTime += r.clock() - e0
	r.span("coll", e0, r.clock())

	elapsed := r.clock() - t0

	// The rebuild vote completes outside the timed window, exactly
	// like stepSync's validity check.
	b0 := r.clock()
	vReq.Wait()
	r.syncClocks()
	r.setView(r.vote[0])
	if skin := cfg.Skin(); !(r.vote[0] < skin*skin) {
		r.rebuild()
		r.syncClocks()
		r.span("rebuild", b0, r.clock())
	}
	r.syncClocks()
	return elapsed
}

// overlapForceMPI is the split-phase force pass of a single-threaded
// rank: post the exchange, then run the core-link pass (it touches no
// halo storage) in D stages, draining one exchange dimension between
// stages so each leg's flight time is covered by the next stage's
// compute. Draining mid-pass matters beyond hiding the first leg: a
// later dimension's sends cannot depart before the earlier halos land,
// so a rank that drained only after its full core pass would hold up
// its neighbours' later legs — the progressive drain posts each
// dimension after roughly 1/D of the pass instead. The core links of
// each block still run in list order across the stages, so the
// trajectory stays bit-identical to stepSync. Exposed waits and
// pack/unpack charges are attributed to comm, the stages to force, and
// "overlap" spans mark the windows the in-flight messages hide behind.
func (r *rankSim) overlapForceMPI(plain geom.Box) float64 {
	cfg := r.cfg
	dm := r.dm
	d := cfg.D
	hw := cfg.surfScale() / cfg.workScale()
	epot := 0.0

	c0 := r.clock()
	dm.BeginRefreshHalos()
	c1 := r.clock() // post cost: dimension 0's packs + sends
	r.commTime += c1 - c0
	r.span("comm", c0, c1)

	for _, b := range dm.Blocks {
		b.PS.ZeroForces()
	}

	// Staged core-link pass interleaved with the progressive drain.
	// The refresh has exactly d dimensions, so the final stage's drain
	// completes it.
	for s := 0; s < d; s++ {
		f0 := r.clock()
		for _, b := range dm.Blocks {
			links := b.List.CoreLinks()
			lo, hi := len(links)*s/d, len(links)*(s+1)/d
			cc0 := dm.TC.Contacts
			epot += cfg.Spring.AccumulateView(b.PS, r.viewOf(b).Walk(links, lo, hi), hi-lo, b.NCore, plain, 1, &dm.TC)
			cc := dm.TC.Contacts - cc0
			n := float64(hi - lo)
			r.c.Compute(n*r.linkCost + float64(cc)*r.contactCost + 2*n*r.updCost)
		}
		f1 := r.clock()
		r.forceTime += f1 - f0
		r.span("force", f0, f1)
		r.span("overlap", f0, f1)
		w0 := r.clock()
		dm.FinishRefreshDim()
		w1 := r.clock()
		r.commTime += w1 - w0
		r.span("comm", w0, w1)
	}

	// Halo-link pass: only now are the halo positions current.
	h0 := r.clock()
	for _, b := range dm.Blocks {
		links, nc := b.List.Links, b.List.NCore
		cc0 := dm.TC.Contacts
		epot += cfg.Spring.AccumulateView(b.PS, r.viewOf(b).Walk(links, nc, len(links)), len(links)-nc, b.NCore, plain, 0.5, &dm.TC)
		cHalo := dm.TC.Contacts - cc0
		nHalo := float64(len(links) - nc)
		r.c.Compute(nHalo*hw*r.linkCost + float64(cHalo)*hw*r.contactCost + 2*nHalo*hw*r.updCost)
		if cfg.Gravity != 0 {
			force.ApplyGravity(b.PS, b.NCore, cfg.D-1, cfg.Gravity)
		}
	}
	h1 := r.clock()
	r.forceTime += h1 - h0
	r.span("force", h0, h1)
	return epot
}

// overlapForceBlocks is the split-phase force pass of a hybrid rank:
// the first updater's region is dispatched to the workers with
// StartRegion, the master drains the exchange while they chew through
// the core links (threads reaching the core/halo boundary of their
// chunk park on the gate), then the gate opens at the communication
// clock, the master joins the region, and the remaining updaters run
// with halos already in place. Under cfg.Fused the first updater is the
// only one and covers every block, so the whole force loop overlaps the
// drain.
func (r *rankSim) overlapForceBlocks(plain geom.Box) float64 {
	cfg := r.cfg
	dm := r.dm

	c0 := r.clock()
	dm.BeginRefreshHalos()
	r.syncClocks()
	c1 := r.clock() // post cost folded into the team clock

	shm.ZeroForcesAllBlocks(r.team, r.stores)
	r.syncClocks() // comm clock to the region join: the master zeroes too

	r.gate.Reset()
	if len(r.upds) == 0 {
		// The rebalancer can leave a per-block rank briefly blockless;
		// just drain the exchange.
		d0 := r.c.Clock()
		r.drainExchange()
		d1 := r.c.Clock()
		r.gate.Open(d1)
		r.syncClocks()
		r.accountHybridOverlap(c0, c1, d0, d1, r.clock())
		return 0
	}
	r.upds[0].AccumulateStart(r.team, cfg.Spring, plain, r.viewOK, r.gate)

	d0 := r.c.Clock()
	r.drainExchange()
	d1 := r.c.Clock()
	r.gate.Open(d1)

	epot := r.upds[0].AccumulateFinish(r.team, d1)
	for _, u := range r.upds[1:] {
		epot += u.AccumulateBlocks(r.team, cfg.Spring, plain, r.viewOK)
	}
	r.applyGravityBlocks()
	r.syncClocks()
	fEnd := r.clock()

	r.accountHybridOverlap(c0, c1, d0, d1, fEnd)
	return epot
}

// drainExchange completes the posted halo exchange on the master; if
// the drain panics the gate is aborted first so parked region threads
// unblock instead of deadlocking the join.
func (r *rankSim) drainExchange() {
	defer func() {
		if e := recover(); e != nil {
			r.gate.Abort()
			panic(e)
		}
	}()
	r.dm.FinishRefreshHalos()
}

// accountHybridOverlap attributes the hybrid split-phase intervals:
// the post (c0-c1) and the exposed gate stall count as communication,
// the rest of the force window as compute; the drain (d0-d1) is marked
// as the overlap span — comm hidden under the workers' core links.
func (r *rankSim) accountHybridOverlap(c0, c1, d0, d1, fEnd float64) {
	stall := r.gate.MaxStall()
	r.commTime += (c1 - c0) + stall
	ft := (fEnd - c1) - stall
	if ft < 0 {
		ft = 0
	}
	r.forceTime += ft
	r.span("comm", c0, c1)
	r.span("force", c1, fEnd)
	if d1 > d0 {
		r.span("overlap", d0, d1)
	}
}

// integrate sweeps every block's core particles — kick, drift, kinetic
// energy and displacement from the block's reference positions in one
// walk, across the team inside one region in hybrid mode — and returns
// the rank's kinetic energy, summed block by block, and its largest
// squared displacement since the last rebuild.
func (r *rankSim) integrate(box geom.Box) (ekin, moved float64) {
	cfg := r.cfg
	dm := r.dm
	if r.team != nil {
		return shm.SweepAllBlocks(r.team, r.stores, r.cores, cfg.Dt, box, force.WrapDeferred)
	}
	for _, b := range dm.Blocks {
		e, m := force.Sweep(b.PS, &b.RefPos, 0, b.NCore, cfg.Dt, box, force.WrapDeferred, &dm.TC)
		r.c.Compute(float64(b.NCore) * r.partCost)
		ekin += e
		moved = max(moved, m)
	}
	return ekin, moved
}

func (r *rankSim) applyGravityBlocks() {
	if r.cfg.Gravity == 0 {
		return
	}
	for _, b := range r.dm.Blocks {
		force.ApplyGravity(b.PS, b.NCore, r.cfg.D-1, r.cfg.Gravity)
	}
}

// The stepper interface: rank 0 leads, and its Stop verdict is agreed
// through an allreduce so that every rank leaves the loop at the same
// iteration (rebuild votes are collective: the counters move in lockstep).
func (r *rankSim) stats() *tally       { return &r.tally }
func (r *rankSim) rank() int           { return r.c.Rank() }
func (r *rankSim) faultPoint(step int) { r.c.FaultPoint(step) }

func (r *rankSim) agree(stop bool) bool {
	r.stop[0] = 0
	if stop {
		r.stop[0] = 1
	}
	r.c.AllreduceInPlace(r.stop[:], mp.Max)
	return r.stop[0] != 0
}

func (r *rankSim) report() part {
	p := part{tally: r.tally, clock: r.clock(), nlinks: r.dm.NumLinks(), tc: r.dm.TC}
	p.tc.Add(&r.c.TC)
	if r.team != nil {
		p.tc.Add(&r.team.TC)
	}
	if r.cfg.Rebalance == RebalanceORB && r.c.Rank() == 0 {
		p.tree = r.dm.ORBTreeSnapshot()
	}
	return p
}

const stateGatherTag = 1 << 28 // far above the exchange phases' tag space

// gather arranges every rank's core particles into arr on rank 0 as the
// ranks store them, block after block in block-id order. All ranks must
// call it. A block off rank 0 travels as one message tagged with its
// id: its cores' ids, and their positions, velocities and reference
// positions as 3·D component streams copied out of its stores into a
// buffer the rank keeps.
func (r *rankSim) gather(arr *Arrangement, iters int) {
	d, c, l := r.cfg.D, r.c, r.dm.L
	streams := func(b *decomp.Block) [3]*geom.Coords { return [3]*geom.Coords{&b.PS.Pos, &b.PS.Vel, &b.RefPos} }
	if c.Rank() != 0 {
		for _, b := range r.dm.Blocks {
			n := b.NCore
			if cap(r.gatherF) < 3*d*n {
				// An eighth to spare: a block's core count drifts with migration.
				r.gatherF = make([]float64, 3*d*(n+n/8))
			}
			f := r.gatherF[:3*d*n]
			for s, src := range streams(b) {
				for k := 0; k < d; k++ {
					copy(f[(s*d+k)*n:], src[k][:n])
				}
			}
			c.Send(0, stateGatherTag+b.ID, f, b.PS.ID[:n])
		}
		return
	}
	if len(r.owned) != l.B {
		r.owned = make([]*decomp.Block, l.B)
	}
	clear(r.owned)
	for _, b := range r.dm.Blocks {
		r.owned[b.ID] = b
	}
	arr.resize(d, r.cfg.N)
	arr.Iters = iters
	dst := [3]*geom.Coords{&arr.Pos, &arr.Vel, &arr.Ref}
	at := 0
	for id, b := range r.owned {
		var f []float64
		var ids []int32
		if b != nil {
			ids = b.PS.ID[:b.NCore]
		} else {
			f, ids = c.Recv(l.RankOfBlock(id), stateGatherTag+id)
		}
		n := len(ids)
		copy(arr.Order[at:], ids)
		for s := range dst {
			for k := 0; k < d; k++ {
				if b != nil {
					copy(dst[s][k][at:], streams(b)[s][k][:n])
				} else {
					copy(dst[s][k][at:], f[(s*d+k)*n:(s*d+k+1)*n])
				}
			}
		}
		if b == nil {
			c.FreeBuffers(f, ids)
		}
		at += n
	}
}

// moveTo puts every core particle at pos[id], in the image nearest its
// reference position — the frame the deferred wrap keeps cores in —
// once the lists have been built at the reference positions.
func (r *rankSim) moveTo(pos []geom.Vec) {
	box := r.cfg.Box()
	for _, b := range r.dm.Blocks {
		for i, id := range b.PS.ID[:b.NCore] {
			for k := 0; k < box.D; k++ {
				x, h := pos[id][k], box.HalfLength(k)
				if dx := x - b.RefPos[k][i]; dx > h {
					x -= box.Len[k]
				} else if dx < -h {
					x += box.Len[k]
				}
				b.PS.Pos[k][i] = x
			}
		}
	}
}

// world is the distributed modes' live engine: P rank goroutines inside
// one mp.RunOpts, each parked on its command channel between Sim calls
// with its domain, team, window and buffers intact.
type world struct {
	cmd    []chan func(stepper)
	ack    chan struct{} // one token per rank per command; sized P so no rank blocks on it
	exited chan struct{} // closed once RunOpts has returned
	err    error         // RunOpts' verdict, valid after exited
}

// startWorld launches the rank goroutines on s.layout. Each sets itself
// up from cfg — after a fault from the newest snapshot instead, as a run
// opened from a checkpoint of it would — and parks; a fault on the way
// surfaces from the first command.
func (s *Sim) startWorld() {
	cfg, l := s.cfg, s.layout // a copy of the config per world: the ranks keep a pointer to it
	cfg.P = l.P
	s.iters = 0
	if a := &s.snap; a.Order != nil {
		s.iters, cfg.Warmup, cfg.Init = a.Iters, 0, a.State(cfg.D)
	}
	moved := cfg.Init.moved() // where an Init's particles go once built at their references
	if s.attempt > 0 && s.ft.OnRetry != nil {
		s.ft.OnRetry(s.attempt, s.iters)
	}
	var net mp.Network = mp.ZeroNetwork{}
	if cfg.Platform != nil {
		if cfg.Mode == Hybrid {
			net = cfg.Platform.NodeNetwork()
		} else {
			net = cfg.Platform.Network()
		}
	}
	w := &world{
		cmd:    make([]chan func(stepper), cfg.P),
		ack:    make(chan struct{}, cfg.P),
		exited: make(chan struct{}),
	}
	for i := range w.cmd {
		w.cmd[i] = make(chan func(stepper))
	}
	s.w, s.parts = w, make([]part, cfg.P)
	go func() {
		defer close(w.exited)
		_, w.err = mp.RunOpts(cfg.P, mp.RunOptions{
			Net:         net,
			Faults:      cfg.Faults,
			Watchdog:    cfg.Watchdog,
			NoIntegrity: cfg.NoIntegrity,
		}, func(c *mp.Comm) {
			r := newRankSim(&cfg, c, l)
			defer r.close()
			if cfg.Init != nil {
				cfg.Init.place(r.dm.Place)
			} else {
				r.dm.FillClustered(cfg.N, cfg.Seed, cfg.InitVel, cfg.FillHeight)
			}
			r.rebuild()
			if moved != nil {
				r.moveTo(moved)
				if r.viewOK { // as the unbroken run found it: measured, reduced
					_, global := r.dm.DisplacementValid(r.dm.MaxCoreDisp2(), cfg.Skin())
					r.setView(global)
				}
			}
			for i := 0; i < cfg.Warmup; i++ {
				c.FaultPoint(i)
				r.step()
			}
			c.Barrier()
			c.SetClock(0)
			if r.team != nil {
				r.team.SetClock(0)
			}
			r.forceTime, r.updateTime, r.commTime, r.collTime = 0, 0, 0, 0
			r.rebuilds0, r.views0 = r.rebuilds, r.viewSteps // the measured window opens here, at clock 0
			for {
				select {
				case f, ok := <-w.cmd[c.Rank()]:
					if !ok {
						return
					}
					f(r)
					w.ack <- struct{}{}
				case <-c.Unwound(): // a peer died: no command can complete
					return
				}
			}
		})
	}()
}

// do runs f on every rank goroutine and waits for all of them; a world
// that dies meanwhile reports why.
func (w *world) do(f func(stepper)) error {
	for _, c := range w.cmd {
		select {
		case c <- f:
		case <-w.exited:
		}
	}
	for range w.cmd {
		select {
		case <-w.ack:
		case <-w.exited:
			return w.err
		}
	}
	return nil
}
