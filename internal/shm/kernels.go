package shm

import (
	"hybriddem/internal/cell"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
)

// The kernel entry points below run every step, so their region bodies
// are reused structs stored on the Team rather than closures: filling
// a struct field and passing its pointer through the RegionBody
// interface performs no allocation.

// BlockStore is one block as the team kernels see it: its particle
// store and core count, the position snapshot of its last list build,
// and that list. The particle sweeps read the first three, the force
// Updater the store and the list. A shared-memory run is one block.
type BlockStore struct {
	PS    *particle.Store
	NCore int          // particle indices >= NCore are halo copies
	Ref   *geom.Coords // what SweepAllBlocks measures displacement from; nil for none

	Links      []cell.Link // core-core links [0:NCoreLinks) first (full energy), then halo links (half)
	NCoreLinks int
	View       *cell.View // Links pruned to contact range, walked in their place on request
}

// sweepPartial is one thread's share of a particle sweep's reduction:
// the kinetic energy of its ranges and the largest squared displacement
// in them. Each sits on a cache line of its own; the master folds them
// in thread order after the join, so the energy is the same sum of the
// same partials whichever thread finishes first.
type sweepPartial struct {
	ekin, maxDisp2 float64
	_              [48]byte
}

// add folds one range's result into the partial.
func (p *sweepPartial) add(ekin, maxDisp2 float64) {
	p.ekin += ekin
	p.maxDisp2 = max(p.maxDisp2, maxDisp2) // the builtin carries a NaN
}

// sweepResult reduces the thread partials of the region just joined.
// With one thread it is that thread's sum unchanged (0 + x is x).
func (tm *Team) sweepResult() (ekin, maxDisp2 float64) {
	var r sweepPartial
	for t := range tm.kPart {
		r.add(tm.kPart[t].ekin, tm.kPart[t].maxDisp2)
	}
	return r.ekin, r.maxDisp2
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
// a single statically scheduled parallel region ("the update of
// positions is parallelised over particles"); chunks are disjoint so
// no synchronisation is needed between threads or blocks. A thread adds
// up its chunk of each block in block order, the master the threads in
// thread order: the rank's kinetic energy — a function of the core
// counts and T alone — and its largest squared displacement from the
// blocks' Ref snapshots. With one thread the energy is the
// block-by-block sum a single-threaded rank makes.
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

// ZeroForcesParallel and IntegrateParallel are the one-block kernels
// over the first n particles of ps. Only benchmarks/hostbench links
// them; ROADMAP item 4 retires them.

// ZeroForcesParallel is ZeroForcesAllBlocks over one block.
func ZeroForcesParallel(tm *Team, ps *particle.Store, n int) {
	ZeroForcesAllBlocks(tm, []*BlockStore{{PS: ps, NCore: n}})
}

// IntegrateParallel is IntegrateAllBlocks over one block.
func IntegrateParallel(tm *Team, ps *particle.Store, n int, dt float64, box geom.Box, mode force.WrapMode) {
	IntegrateAllBlocks(tm, []*BlockStore{{PS: ps, NCore: n}}, []int{n}, dt, box, mode)
}
