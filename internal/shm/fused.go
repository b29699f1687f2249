package shm

import (
	"fmt"

	"hybriddem/internal/cell"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
)

// BlockStore pairs a block's particle store with its core count for
// the whole-rank fused kernels. Ref, when set, is the block's position
// snapshot from the last list build, which SweepAllBlocks measures the
// displacement against.
type BlockStore struct {
	PS    *particle.Store
	NCore int
	Ref   *geom.Coords
}

type zeroBlocksBody struct {
	blocks []*BlockStore
}

func (b *zeroBlocksBody) RunThread(th *Thread) {
	tm := th.team
	total := 0
	for _, blk := range b.blocks {
		lo, hi := chunk(blk.NCore, tm.T, th.ID)
		for k := 0; k < blk.PS.D; k++ {
			frc := blk.PS.Frc[k][lo:hi]
			for i := range frc {
				frc[i] = 0
			}
		}
		total += hi - lo
	}
	th.Compute(float64(total) * tm.Costs.PerParticle / 4)
}

// ZeroForcesAllBlocks clears the core force accumulators of every
// block inside a single parallel region — the paper's optimisation of
// "having a single parallel region enclosing the outer loop over
// blocks" for the simple loops.
func ZeroForcesAllBlocks(tm *Team, blocks []*BlockStore) {
	tm.kZeroB = zeroBlocksBody{blocks: blocks}
	tm.RunRegion(&tm.kZeroB)
}

type integrateBlocksBody struct {
	blocks []*BlockStore
	cores  []int
	dt     float64
	box    geom.Box
	mode   force.WrapMode
}

func (b *integrateBlocksBody) RunThread(th *Thread) {
	tm := th.team
	total := 0
	var p sweepPartial
	for i, blk := range b.blocks {
		lo, hi := chunk(b.cores[i], tm.T, th.ID)
		p.add(force.Sweep(blk.PS, blk.Ref, lo, hi, b.dt, b.box, b.mode, &th.TC))
		total += hi - lo
	}
	tm.kPart[th.ID] = p
	th.Compute(float64(total) * tm.Costs.PerParticle)
}

// SweepAllBlocks runs force.Sweep over every block's core particles in
// a single parallel region; chunks are disjoint so no synchronisation
// is needed between blocks. A thread adds up its chunk of each block in
// block order, the master the threads in thread order: the rank's
// kinetic energy and its largest squared displacement from the blocks'
// Ref snapshots. With one thread the energy is the block-by-block sum a
// single-threaded rank makes.
func SweepAllBlocks(tm *Team, blocks []*BlockStore, cores []int, dt float64, box geom.Box, mode force.WrapMode) (ekin, maxDisp2 float64) {
	tm.kIntegB = integrateBlocksBody{blocks: blocks, cores: cores, dt: dt, box: box, mode: mode}
	tm.RunRegion(&tm.kIntegB)
	return tm.sweepResult()
}

// IntegrateAllBlocks advances every block's core particles in a single
// parallel region: SweepAllBlocks with its results dropped.
func IntegrateAllBlocks(tm *Team, blocks []*BlockStore, cores []int, dt float64, box geom.Box, mode force.WrapMode) {
	SweepAllBlocks(tm, blocks, cores, dt, box, mode)
}

// FusedPiece is one block's contribution to the fused force loop.
type FusedPiece struct {
	PS         *particle.Store
	Links      []cell.Link
	NCoreLinks int // links [0:NCoreLinks) are core-core (full energy)
	NCore      int // particle indices >= NCore are halo copies
}

// FusedUpdater implements the paper's Section 11 proposal: "a single
// parallel loop over all links in all blocks rather than one loop per
// block". Threads chunk the *concatenated* link list, so with many
// blocks per thread most blocks are private to one thread and the
// conflict (lock) fraction collapses, while fork/join overhead drops
// from one region per block to one region per iteration. All scratch
// (offsets, conflict tables, locks) is reused across Prepare calls.
type FusedUpdater struct {
	Method Method

	pieces  []FusedPiece
	offsets []int // global link offset of each piece; len(pieces)+1
	total   int
	T       int
	tables  []*ConflictTable
	masks   [][]bool // per piece: which particles the kernel locks
	all     []bool   // all-true backing of the Atomic masks
	locks   [][]int32
	ranges  [][2]int       // per-thread range scratch, reused per piece
	counts  []updateCounts // per thread, summed over pieces

	epotPer []float64
	sp      force.Spring
	box     geom.Box
	hook    func(idI, idJ int32, fi geom.Vec) geom.Vec
	gate    *HaloGate
}

// NewFusedUpdater returns a fused updater; only the per-update
// protection methods make sense here (array reductions would need a
// private copy of every block).
func NewFusedUpdater(m Method) *FusedUpdater {
	switch m {
	case Atomic, SelectedAtomic, Unprotected:
		return &FusedUpdater{Method: m}
	default:
		panic(fmt.Sprintf("shm: fused updater does not support method %v", m))
	}
}

// pieceRange clips thread t's chunk of the concatenated list to piece
// i, in piece-local link indices; hi <= lo when they do not meet.
func (fu *FusedUpdater) pieceRange(i, t int) (lo, hi int) {
	glo, ghi := chunk(fu.total, fu.T, t)
	n := fu.offsets[i+1] - fu.offsets[i]
	lo = min(max(glo-fu.offsets[i], 0), n)
	hi = min(max(ghi-fu.offsets[i], lo), n)
	return lo, hi
}

// Prepare recomputes the global chunking, the per-piece conflict
// tables and the per-thread update counts for the current lists,
// reusing the updater's scratch; call at every rebuild. The pieces
// slice is retained (not copied), so callers that rebuild repeatedly
// should reuse one slice.
func (fu *FusedUpdater) Prepare(pieces []FusedPiece, T int) {
	fu.pieces = pieces
	fu.T = T
	if cap(fu.offsets) < len(pieces)+1 {
		fu.offsets = make([]int, len(pieces)+1)
	}
	fu.offsets = fu.offsets[:len(pieces)+1]
	fu.offsets[0] = 0
	for i, p := range pieces {
		fu.offsets[i+1] = fu.offsets[i] + len(p.Links)
	}
	fu.total = fu.offsets[len(pieces)]
	for len(fu.tables) < len(pieces) {
		fu.tables = append(fu.tables, new(ConflictTable))
		fu.masks = append(fu.masks, nil)
		fu.locks = append(fu.locks, nil)
	}
	if cap(fu.ranges) < T {
		fu.ranges = make([][2]int, T)
		fu.counts = make([]updateCounts, T)
		fu.epotPer = make([]float64, T)
	}
	ranges := fu.ranges[:T]
	fu.counts = fu.counts[:T]
	fu.epotPer = fu.epotPer[:T]
	for t := range fu.counts {
		fu.counts[t] = updateCounts{}
	}
	for i, p := range pieces {
		for t := range ranges {
			lo, hi := fu.pieceRange(i, t)
			ranges[t] = [2]int{lo, hi}
		}
		n := p.PS.Len()
		if fu.Method == SelectedAtomic {
			fu.tables[i].rebuildRanges(p.Links, n, p.NCore, ranges)
		}
		fu.masks[i] = lockMask(fu.Method, fu.tables[i], &fu.all, n)
		for t, r := range ranges {
			fu.counts[t].count(p.Links[r[0]:r[1]], p.NCore, fu.masks[i])
		}
		if cap(fu.locks[i]) < n {
			fu.locks[i] = make([]int32, n)
		}
		fu.locks[i] = fu.locks[i][:n]
		// Re-zero the reused prefix so a lock abandoned by an aborted
		// region cannot deadlock the next run.
		for k := range fu.locks[i] {
			fu.locks[i][k] = 0
		}
	}
}

// NumShared returns the total number of protected particles across
// all pieces.
func (fu *FusedUpdater) NumShared() int {
	n := 0
	for _, t := range fu.tables[:len(fu.pieces)] {
		n += t.nShared
	}
	return n
}

// Accumulate runs the fused force loop in one parallel region and
// returns the total potential energy (halo links at half weight).
func (fu *FusedUpdater) Accumulate(tm *Team, sp force.Spring, box geom.Box) float64 {
	fu.setupRegion(tm, sp, box, nil)
	tm.RunRegion(fu)
	return sumEpot(fu.epotPer)
}

// AccumulateStart dispatches the fused force region to the worker
// threads and returns immediately so the rank goroutine can drain its
// split-phase halo exchange; threads block on gate at the core/halo
// boundary of their chunk. Complete with AccumulateFinish.
func (fu *FusedUpdater) AccumulateStart(tm *Team, sp force.Spring, box geom.Box, gate *HaloGate) {
	fu.setupRegion(tm, sp, box, gate)
	tm.StartRegion(fu)
}

// AccumulateFinish runs the master's share of a region begun with
// AccumulateStart (starting no earlier than masterAt), joins the team,
// and returns the potential energy.
func (fu *FusedUpdater) AccumulateFinish(tm *Team, masterAt float64) float64 {
	tm.FinishRegion(masterAt)
	return sumEpot(fu.epotPer)
}

func (fu *FusedUpdater) setupRegion(tm *Team, sp force.Spring, box geom.Box, gate *HaloGate) {
	if tm.T != fu.T {
		panic(fmt.Sprintf("shm: fused updater prepared for T=%d, run with T=%d", fu.T, tm.T))
	}
	fu.sp = sp
	fu.box = box
	fu.hook = pairHook(fu.Method)
	fu.gate = gate
}

// RunThread is one thread's share of the fused force loop: its chunk
// of the concatenated list, piece by piece, through the pair kernel.
func (fu *FusedUpdater) RunThread(th *Thread) {
	var tl tally
	// One gate wait suffices: the exchange delivers every block's halo
	// before the gate opens, so after the first wait the remaining
	// pieces' halo links are safe too.
	gate := fu.gate
	for pi := range fu.pieces {
		p := &fu.pieces[pi]
		lo, hi := fu.pieceRange(pi, th.ID)
		if hi <= lo {
			continue
		}
		sink := force.Sink{Frc: &p.PS.Frc, Shared: fu.masks[pi], Locks: fu.locks[pi], Hook: fu.hook}
		if tl.run(th, gate, fu.sp, &sink, p.PS, p.Links, lo, hi, p.NCoreLinks, p.NCore, fu.box) {
			gate = nil
		}
	}
	tl.bookLocked(th, fu.counts[th.ID])
	fu.epotPer[th.ID] = tl.epot
}
