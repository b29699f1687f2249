package shm

import (
	"fmt"
	"strings"

	"hybriddem/internal/cell"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
)

// Method selects how concurrent updates of the global force array are
// protected, Section 7 of the paper.
type Method int

const (
	// Atomic protects every accumulation with a per-particle lock
	// ("making every update atomic").
	Atomic Method = iota
	// SelectedAtomic consults a conflict table built at link-list
	// time and locks only particles genuinely updated by more than
	// one thread — the paper's winning strategy on the Compaq.
	SelectedAtomic
	// CriticalReduction accumulates into thread-private arrays and
	// performs the global sum inside a critical region; the paper
	// reports "extremely poor results which are not shown".
	CriticalReduction
	// Stripe accumulates privately then reduces in T rounds, each
	// thread always updating a different stripe of the global array,
	// with a barrier between rounds.
	Stripe
	// Transpose accumulates into a [T][N] temporary and reduces in
	// parallel over the particle index.
	Transpose
	// Unprotected performs plain unlocked updates. It is INCORRECT
	// under real concurrency and exists only for the paper's Section
	// 9.2 ablation ("an incorrect code ... simulating a machine with
	// an extremely efficient atomic lock"); the ablation harness runs
	// it with T=1 real threads while modelling T virtual threads.
	Unprotected
)

var methodNames = map[Method]string{
	Atomic:            "atomic",
	SelectedAtomic:    "selected-atomic",
	CriticalReduction: "critical-reduction",
	Stripe:            "stripe",
	Transpose:         "transpose",
	Unprotected:       "unprotected",
}

func (m Method) String() string {
	if s, ok := methodNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// ArrayReduction reports whether m accumulates into thread-private
// copies of a block's force array and reduces them into it: such an
// Updater runs exactly one block.
func (m Method) ArrayReduction() bool {
	return m == CriticalReduction || m == Stripe || m == Transpose
}

// Methods lists the strategies the paper benchmarks (Figure 4/5 show
// atomic, selected atomic, and the stripe/transpose pair; the critical
// reduction is measured but unplotted).
var Methods = []Method{Atomic, SelectedAtomic, CriticalReduction, Stripe, Transpose}

// MethodNames returns the command-line names of Methods, in order — the
// canonical content of a -method flag's help text.
func MethodNames() []string {
	ns := make([]string, len(Methods))
	for i, m := range Methods {
		ns[i] = m.String()
	}
	return ns
}

// MethodByName resolves a command-line method name (case-insensitive).
// The error lists the valid names.
func MethodByName(name string) (Method, error) {
	for _, m := range Methods {
		if strings.EqualFold(name, m.String()) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown method %q (valid: %s)", name, strings.Join(MethodNames(), " | "))
}

// PairForceHook, when non-nil, intercepts every pair force computed by
// the shared-memory Updater before it is accumulated: it receives the
// update method and the two particle IDs and returns the force to apply
// to endpoint I. It is a fault-injection point for the conformance
// harness in internal/verify — a test can corrupt the output of exactly
// one update strategy and assert the differential runner localises the
// divergence — and must stay nil in production. Set and clear it only while no simulation is running.
var PairForceHook func(m Method, idI, idJ int32, fi geom.Vec) geom.Vec

// ConflictTable records which particles are updated by links belonging
// to more than one thread under the static link distribution. It stays
// valid for as long as the link list does: "the table is valid for
// many force calculations until the linked list is next recalculated".
// Its storage (including the owner scratch used during construction)
// is reused across rebuilds.
type ConflictTable struct {
	shared  []bool
	owner   []int32 // construction scratch: first thread to touch each particle
	nShared int
}

// resize prepares the table's storage for nParticles, clearing it.
func (ct *ConflictTable) resize(nParticles int) {
	if cap(ct.shared) < nParticles {
		ct.shared = make([]bool, nParticles)
		ct.owner = make([]int32, nParticles)
	}
	ct.shared = ct.shared[:nParticles]
	ct.owner = ct.owner[:nParticles]
	for i := range ct.shared {
		ct.shared[i] = false
	}
	for i := range ct.owner {
		ct.owner[i] = -1
	}
	ct.nShared = 0
}

// mark records that thread t updates particle p; the second distinct
// thread makes p shared. Halo copies (p >= nCore) are never updated,
// hence never shared.
func (ct *ConflictTable) mark(p, t int32, nCore int) {
	if int(p) >= nCore {
		return
	}
	switch ct.owner[p] {
	case -1:
		ct.owner[p] = t
	case t:
	default:
		if !ct.shared[p] {
			ct.shared[p] = true
			ct.nShared++
		}
	}
}

// rebuild marks the particles with links in more than one of the
// per-thread ranges of links, reusing the table's storage.
func (ct *ConflictTable) rebuild(links []cell.Link, nParticles, nCore int, ranges [][2]int) {
	ct.resize(nParticles)
	for t, r := range ranges {
		for _, l := range links[r[0]:r[1]] {
			ct.mark(l.I, int32(t), nCore)
			ct.mark(l.J, int32(t), nCore)
		}
	}
}

// BuildConflictTable scans links as distributed over T threads (the
// static chunk schedule) and marks particles with links belonging to
// more than one thread.
func BuildConflictTable(links []cell.Link, nParticles, nCore, T int) *ConflictTable {
	ranges := make([][2]int, T)
	for t := range ranges {
		lo, hi := chunk(len(links), T, t)
		ranges[t] = [2]int{lo, hi}
	}
	ct := new(ConflictTable)
	ct.rebuild(links, nParticles, nCore, ranges)
	return ct
}

// NumShared returns the number of particles needing protection.
func (ct *ConflictTable) NumShared() int { return ct.nShared }

// lockMask returns what the pair kernel's sink needs to protect the
// updates of n particles under method m: nil (plain stores) for the
// methods that take no locks and for a selected-atomic list on which no
// particle is shared, ct's table where some are, and an all-true mask,
// grown in *all, for Atomic.
func lockMask(m Method, ct *ConflictTable, all *[]bool, n int) []bool {
	switch {
	case m == SelectedAtomic && ct.nShared > 0:
		return ct.shared
	case m == Atomic:
		for len(*all) < n {
			*all = append(*all, true)
		}
		return (*all)[:n]
	}
	return nil
}

// updateCounts is one thread's tally of the force updates its share
// of a link list makes — endpoint I of every link, endpoint J when it
// is a core particle — split by whether the update takes a lock. It is
// a function of the list and the lock mask alone (every link counts,
// in contact or not: the virtual clock charges the update slot, as the
// paper's code executes it), so Prepare counts once per list instead of
// the force loop once per link per step.
type updateCounts struct{ taken, avoided int64 }

func (c *updateCounts) count(links []cell.Link, nCore int, mask []bool) {
	for _, l := range links {
		if mask != nil && mask[l.I] {
			c.taken++
		} else {
			c.avoided++
		}
		if int(l.J) < nCore {
			if mask != nil && mask[l.J] {
				c.taken++
			} else {
				c.avoided++
			}
		}
	}
}

// tally is one thread's running totals over the link ranges it walks
// in one force region.
type tally struct {
	epot                   float64
	links                  int64 // skin links, what the virtual clock prices
	tested                 int64 // links the kernel walked: the view's image of links
	contacts, contactsHalo int64
	effLinks               float64 // core links + HaloWork * halo links
}

// run walks links[lo:hi] of one list through the pair kernel — or,
// with a view, that range's image in it — the core links at full
// energy, then, once gate, if any, has opened, the halo links at half,
// both into the one running energy sum. It reports whether it waited
// on the gate. Core links touch only core particles and the exchange
// writes only halo storage, so nothing before the wait reads what the
// exchange is still writing. The gate and the counts go by the skin
// range, so a view changes neither the wait nor the clock.
func (tl *tally) run(th *Thread, gate *HaloGate, sp force.Spring, dst *force.Sink, ps *particle.Store, links []cell.Link, view *cell.View, lo, hi, nCoreLinks, nCore int, box geom.Box) (waited bool) {
	mid := min(max(nCoreLinks, lo), hi)
	var c int64
	walk := view.Walk(links, lo, mid)
	tl.epot, c = sp.AccumulateRange(dst, ps, walk, nCore, box, tl.epot, 1)
	tl.contacts += c
	tl.tested += int64(len(walk))
	if gate != nil && (mid < hi || lo >= nCoreLinks) {
		gate.Wait(th)
		waited = true
	}
	walk = view.Walk(links, mid, hi)
	tl.epot, c = sp.AccumulateRange(dst, ps, walk, nCore, box, tl.epot, 0.5)
	tl.contactsHalo += c
	tl.tested += int64(len(walk))
	tl.links += int64(hi - lo)
	tl.effLinks += float64(mid-lo) + float64(hi-mid)*th.team.Costs.haloWork()
	return waited
}

// book records the walk in the thread's counters and returns the
// modelled cost of its contacts, the term every method charges alike.
func (tl *tally) book(th *Thread) (contactCost float64) {
	costs := &th.team.Costs
	th.TC.ForceEvals += tl.links
	th.TC.LinkVisits += tl.links
	th.TC.LinksTested += tl.tested
	th.TC.Contacts += tl.contacts + tl.contactsHalo
	return (float64(tl.contacts) + float64(tl.contactsHalo)*costs.haloWork()) * costs.PerContact
}

// bookLocked is book for the per-update protection methods, charging
// the thread its links, contacts and force updates, locked or not.
func (tl *tally) bookLocked(th *Thread, c updateCounts) {
	costs := &th.team.Costs
	contactCost := tl.book(th)
	th.TC.ForceUpdates += c.taken + c.avoided
	th.TC.AtomicsTaken += c.taken
	th.TC.AtomicsAvoided += c.avoided
	th.Compute(tl.effLinks*costs.PerLink + contactCost +
		float64(c.avoided)*costs.PerUpdate +
		float64(c.taken)*(costs.PerUpdate+costs.AtomicTaken))
}

// pairHook adapts PairForceHook, if set, to the kernel's sink.
func pairHook(m Method) func(idI, idJ int32, fi geom.Vec) geom.Vec {
	hook := PairForceHook
	if hook == nil {
		return nil
	}
	return func(idI, idJ int32, fi geom.Vec) geom.Vec { return hook(m, idI, idJ, fi) }
}

// Updater executes the thread-parallel force accumulation over a list
// of blocks with a chosen protection method, in one statically
// scheduled region: each thread takes its chunk of the blocks' links
// laid end to end, clipped to each block. Over one block this is the
// paper's per-block loop; over all of a rank's blocks it is its Section
// 11 proposal, "a single parallel loop over all links in all blocks
// rather than one loop per block", where with many blocks per thread
// most blocks are private to one thread, the conflict (lock) fraction
// collapses and one region replaces one per block. The pair loop itself
// is force.Spring.AccumulateRange; the updater owns what is specific to
// threads: the chunking, the per-particle locks and their masks, the
// reduction scratch and merges, and the virtual-clock charge.
type Updater struct {
	Method Method

	// Prepared geometry: the blocks, the start of each in the
	// concatenated list (len(blocks)+1 entries) and the team size, so
	// a mismatched team or list panics instead of racing silently.
	blocks  []*BlockStore
	offsets []int
	T       int

	tables []*ConflictTable // per block, selected-atomic only
	masks  [][]bool         // per block: which particles the kernel locks; nil = none
	all    []bool           // all-true backing of the Atomic masks
	locks  [][]int32        // per block: per-particle spinlocks
	ranges [][2]int         // per-thread range scratch of Prepare
	counts []updateCounts   // per thread, summed over blocks
	priv   []geom.Coords    // T thread-private force arrays (reductions)

	// The block of the one-block Prepare and Accumulate.
	one     BlockStore
	oneList [1]*BlockStore

	// Reused per-call scratch (no closures on the hot path).
	epotPer []float64
	args    accArgs
}

// NewUpdater returns an updater for the given method.
func NewUpdater(m Method) *Updater { return &Updater{Method: m} }

// Prepare is PrepareBlocks for one block of nParticles particles (the
// first nCore of them core) whose store Accumulate is handed later.
func (u *Updater) Prepare(links []cell.Link, nParticles, nCore, T int) {
	u.one = BlockStore{NCore: nCore, Links: links}
	u.oneList[0] = &u.one
	u.begin(u.oneList[:], T)
	u.prepareBlock(0, nParticles)
}

// PrepareBlocks must be called whenever a block's link list changes: it
// (re)builds the conflict tables for the selected-atomic method, resizes
// the lock arrays and counts each thread's locked and unlocked updates,
// all for the static chunking of the blocks' links over T threads. The
// blocks slice is retained, not copied; the accumulations panic if run
// with a different team size or link count. The array reductions need
// a private copy of the force array they reduce, so they take exactly
// one block.
func (u *Updater) PrepareBlocks(blocks []*BlockStore, T int) {
	if u.Method.ArrayReduction() && len(blocks) != 1 {
		panic(fmt.Sprintf("shm: method %v runs one block, not %d", u.Method, len(blocks)))
	}
	u.begin(blocks, T)
	for i, b := range blocks {
		u.prepareBlock(i, b.PS.Len())
	}
}

// begin records the blocks' geometry and sizes the per-block and
// per-thread scratch, reusing it.
func (u *Updater) begin(blocks []*BlockStore, T int) {
	u.blocks, u.T = blocks, T
	u.offsets = append(u.offsets[:0], 0)
	for i, b := range blocks {
		u.offsets = append(u.offsets, u.offsets[i]+len(b.Links))
	}
	for len(u.tables) < len(blocks) {
		u.tables = append(u.tables, new(ConflictTable))
		u.masks = append(u.masks, nil)
		u.locks = append(u.locks, nil)
	}
	if cap(u.ranges) < T {
		u.ranges = make([][2]int, T)
		u.counts = make([]updateCounts, T)
		u.epotPer = make([]float64, T)
	}
	u.ranges, u.counts, u.epotPer = u.ranges[:T], u.counts[:T], u.epotPer[:T]
	clear(u.counts)
}

// prepareBlock builds block i's conflict table, lock mask and locks
// for n particles and adds its updates to the thread counts.
func (u *Updater) prepareBlock(i, n int) {
	b := u.blocks[i]
	for t := range u.ranges {
		lo, hi := u.blockRange(i, t)
		u.ranges[t] = [2]int{lo, hi}
	}
	if u.Method == SelectedAtomic {
		u.tables[i].rebuild(b.Links, n, b.NCore, u.ranges)
	}
	u.masks[i] = lockMask(u.Method, u.tables[i], &u.all, n)
	for t, r := range u.ranges {
		u.counts[t].count(b.Links[r[0]:r[1]], b.NCore, u.masks[i])
	}
	if cap(u.locks[i]) < n {
		u.locks[i] = make([]int32, n)
	}
	// Zero the reused prefix unconditionally: if a prior region was
	// abandoned (clockBarrier.abort after a sibling panic) while some
	// thread held a per-particle spinlock, the stale lock word would
	// deadlock the first locked add of the next run.
	u.locks[i] = u.locks[i][:n]
	clear(u.locks[i])
}

// blockRange clips thread t's chunk of the concatenated list to block
// i, in block-local link indices; hi <= lo when they do not meet.
func (u *Updater) blockRange(i, t int) (lo, hi int) {
	glo, ghi := chunk(u.offsets[len(u.blocks)], u.T, t)
	n := u.offsets[i+1] - u.offsets[i]
	lo = min(max(glo-u.offsets[i], 0), n)
	hi = min(max(ghi-u.offsets[i], lo), n)
	return lo, hi
}

// NumShared returns the number of particles the last Prepare found
// updated by more than one thread, over all blocks; zero for methods
// that build no conflict table.
func (u *Updater) NumShared() int {
	if u.Method != SelectedAtomic {
		return 0
	}
	n := 0
	for _, ct := range u.tables[:len(u.blocks)] {
		n += ct.nShared
	}
	return n
}

// accArgs carries one accumulation's inputs to the region body.
type accArgs struct {
	sp    force.Spring
	box   geom.Box
	views bool // walk the blocks' views in place of their lists
	hook  func(idI, idJ int32, fi geom.Vec) geom.Vec
	priv  []geom.Coords // nil for the per-update protection methods

	// gate, when non-nil, blocks each thread at the core/halo link
	// boundary of its chunk until the rank's split-phase halo exchange
	// has landed (overlapped force path). Iteration order is unchanged:
	// the gate is a pause between the chunk's core range and its halo
	// range, so the conflict tables and the accumulation order stay
	// valid.
	gate *HaloGate
}

// Accumulate is AccumulateBlocks over the one block Prepare saw, with
// store ps and links whose first nCoreLinks are core-core.
func (u *Updater) Accumulate(tm *Team, sp force.Spring, ps *particle.Store, links []cell.Link, nCoreLinks, nCore int, box geom.Box) float64 {
	if len(u.blocks) != 1 {
		panic(fmt.Sprintf("shm: updater prepared for %d blocks, run over one", len(u.blocks)))
	}
	u.one = BlockStore{PS: ps, NCore: nCore, Links: links, NCoreLinks: nCoreLinks}
	u.oneList[0] = &u.one
	u.blocks = u.oneList[:]
	return u.AccumulateBlocks(tm, sp, box, false)
}

// AccumulateBlocks runs the parallel force loop over the prepared
// blocks (in each, core links first, then halo links whose energy
// counts half), adding pair forces into each block's store and
// returning the potential energy. Forces land on endpoint I always and
// on J when J < NCore, identically to the serial kernel in
// internal/force.
//
// Every block's whole list is processed in ONE statically scheduled
// loop — the distribution PrepareBlocks built the conflict tables for.
// Splitting core and halo links into separate loops would redistribute
// links over threads and invalidate the tables, which is why the
// accumulations panic when the team size or link count differs from
// Prepare's.
//
// With views, and no pair hook set, each thread walks the image of its
// range of each block's list in the block's View, split at the image of
// the core/halo boundary, so every thread meets the same contacts in
// the same order and the conflict tables, the lock masks and the
// per-call energy association stand. The virtual clock still counts
// links.
func (u *Updater) AccumulateBlocks(tm *Team, sp force.Spring, box geom.Box, views bool) float64 {
	u.setupRegion(tm, sp, box, views, nil)
	tm.RunRegion(u)
	return sumEpot(u.epotPer)
}

// AccumulateStart dispatches the force region to the worker threads
// and returns without running the master's share: the rank goroutine
// is free to drain its split-phase halo exchange while threads 1..T-1
// chew through the core links. Threads reaching the core/halo boundary
// block on gate until the caller opens it; the caller then completes
// the region with AccumulateFinish. views is AccumulateBlocks' flag.
func (u *Updater) AccumulateStart(tm *Team, sp force.Spring, box geom.Box, views bool, gate *HaloGate) {
	u.setupRegion(tm, sp, box, views, gate)
	tm.StartRegion(u)
}

// AccumulateFinish runs the master's share of a region begun with
// AccumulateStart — starting no earlier than masterAt on the virtual
// timeline — joins the team, and returns the potential energy.
func (u *Updater) AccumulateFinish(tm *Team, masterAt float64) float64 {
	tm.FinishRegion(masterAt)
	return sumEpot(u.epotPer)
}

// setupRegion validates the call against Prepare and stores the
// region inputs. A hook sees every pair, so it drops the views.
func (u *Updater) setupRegion(tm *Team, sp force.Spring, box geom.Box, views bool, gate *HaloGate) {
	ok, links := tm.T == u.T, 0
	for i, b := range u.blocks {
		ok = ok && len(b.Links) == u.offsets[i+1]-u.offsets[i]
		links += len(b.Links)
	}
	if !ok {
		panic(fmt.Sprintf("shm: updater prepared for T=%d over %d links, run with T=%d over %d links",
			u.T, u.offsets[len(u.offsets)-1], tm.T, links))
	}
	hook := pairHook(u.Method)
	u.args = accArgs{sp: sp, box: box, views: views && hook == nil, hook: hook, gate: gate}
	switch u.Method {
	case Atomic, SelectedAtomic, Unprotected:
	case CriticalReduction, Stripe, Transpose:
		ps := u.blocks[0].PS
		u.args.priv = u.ensurePriv(tm.T, ps.Len(), ps.D)
	default:
		panic(fmt.Sprintf("shm: unknown update method %v", u.Method))
	}
}

// sumEpot folds the per-thread potential-energy partials.
func sumEpot(per []float64) float64 {
	epot := 0.0
	for _, e := range per {
		epot += e
	}
	return epot
}

// RunThread is one thread's share of the force region: its range of
// each block's list through the pair kernel — into the block's force
// array under the method's lock mask, or into the thread's private
// array followed by the method's merge.
//
// A thread skips a block its chunk misses, except that over a single
// block every thread runs its chunk even when it is empty: such a
// thread, lying at or past the core/halo boundary, still waits on the
// gate, and its wait is the region's exposed communication. One wait
// suffices: the exchange delivers every block's halo before the gate
// opens.
func (u *Updater) RunThread(th *Thread) {
	a := &u.args
	var tl tally
	gate := a.gate
	for i, b := range u.blocks {
		lo, hi := u.blockRange(i, th.ID)
		if hi <= lo && len(u.blocks) > 1 {
			continue
		}
		sink := force.Sink{Frc: &b.PS.Frc, Shared: u.masks[i], Locks: u.locks[i], Hook: a.hook}
		if a.priv != nil {
			sink.Frc = &a.priv[th.ID]
		}
		var view *cell.View
		if a.views {
			view = b.View
		}
		if tl.run(th, gate, a.sp, &sink, b.PS, b.Links, view, lo, hi, b.NCoreLinks, b.NCore, a.box) {
			gate = nil
		}
	}
	u.epotPer[th.ID] = tl.epot
	if a.priv == nil {
		tl.bookLocked(th, u.counts[th.ID])
		return
	}
	// Private accumulation plus the zeroing traffic of the scratch
	// array, then the merge.
	ps := u.blocks[0].PS
	costs := &th.team.Costs
	words := ps.Len() * ps.D
	contactCost := tl.book(th)
	th.TC.ForceUpdates += 2 * tl.links
	th.Compute(tl.effLinks*(costs.PerLink+2*costs.PerUpdate) + contactCost +
		float64(words)*costs.ReductionWord)
	u.reduce(th, &ps.Frc, words, ps.D)
}

// ensurePriv sizes and zeroes the T private force arrays of d
// components by n particles and returns them. The zeroing traffic is
// charged to the threads by the reduction kernels; "all array
// reduction techniques place a heavy demand on the memory system".
func (u *Updater) ensurePriv(T, n, d int) []geom.Coords {
	for len(u.priv) < T {
		u.priv = append(u.priv, geom.Coords{})
	}
	for t := 0; t < T; t++ {
		for k := 0; k < d; k++ {
			c := u.priv[t][k]
			if cap(c) < n {
				c = make([]float64, n)
			} else {
				c = c[:n]
				for i := range c {
					c[i] = 0
				}
			}
			u.priv[t][k] = c
		}
	}
	return u.priv[:T]
}

// mergeWords adds words [lo, hi) of a private array into frc. Words
// are numbered particle-major (word i is component i%d of particle
// i/d) although the storage is component-major: the stripe and
// transpose schedules deal words to threads and rounds by that index,
// so it fixes the order in which each element receives its per-thread
// contributions, and with it the bits of the sum.
func mergeWords(frc, mine *geom.Coords, lo, hi, d int) {
	p, k := lo/d, lo%d
	for i := lo; i < hi; i++ {
		frc[k][p] += mine[k][p]
		if k++; k == d {
			p, k = p+1, 0
		}
	}
}

// reduce merges the thread-private arrays into frc according to the
// method. Called from within the region by every thread; contains the
// barriers each strategy needs.
func (u *Updater) reduce(th *Thread, frc *geom.Coords, words, d int) {
	tm := th.team
	priv := u.args.priv
	switch u.Method {
	case CriticalReduction:
		// Threads serialise on the critical section; the virtual
		// clock models the serialisation by staggering completion in
		// thread order, so the modelled region time grows as T times
		// the reduction work — the paper's "extremely poor" result.
		// The critical section is entered inline (not via
		// tm.Critical) so the hot path needs no closure.
		th.Barrier() // all private arrays complete
		tm.mu.Lock()
		mergeWords(frc, &priv[th.ID], 0, words, d)
		tm.mu.Unlock()
		th.Compute(tm.Costs.Critical)
		th.TC.CriticalEnters++
		th.TC.ReductionWords += int64(words)
		th.Compute(float64(th.ID+1) * float64(words) * tm.Costs.ReductionWord)
		th.Barrier()

	case Stripe:
		// T rounds; in round r thread t owns stripe (t+r) mod T, so
		// no two threads ever touch the same portion of the global
		// array; a barrier separates rounds.
		th.Barrier()
		T := tm.T
		for r := 0; r < T; r++ {
			lo, hi := chunk(words, T, (th.ID+r)%T)
			mergeWords(frc, &priv[th.ID], lo, hi, d)
			th.TC.ReductionWords += int64(hi - lo)
			th.Compute(float64(hi-lo) * tm.Costs.ReductionWord)
			th.Barrier()
		}

	case Transpose:
		// Parallel reduction over the main particle index: thread t
		// sums column chunk [lo,hi) across all T private arrays.
		th.Barrier()
		lo, hi := chunk(words, tm.T, th.ID)
		for t := 0; t < tm.T; t++ {
			mergeWords(frc, &priv[t], lo, hi, d)
		}
		th.TC.ReductionWords += int64((hi - lo) * tm.T)
		th.Compute(float64((hi-lo)*tm.T) * tm.Costs.ReductionWord)
		th.Barrier()
	}
}
