package decomp

import (
	"fmt"
	"math/rand"

	"hybriddem/internal/cell"
	"hybriddem/internal/geom"
	"hybriddem/internal/mp"
	"hybriddem/internal/trace"
)

// exchange phases, encoded into message tags so halo construction,
// per-iteration refresh and migration never cross-match.
const (
	phaseBuild = iota
	phaseRefresh
	phaseMigrate
	phaseXfer   // whole-block transfer during a rebalance
	phaseWinDir // shared-window layout directory (mpism)
)

// tagFor builds the unique tag of one halo leg from the receiving
// block's perspective: side is the face of the destination block the
// data arrives on.
func (dm *Domain) tagFor(phase, dstBlock, dim, side int) int {
	return ((phase*dm.L.B+dstBlock)*geom.MaxD+dim)*2 + side
}

// Domain is one rank's set of blocks plus the exchange machinery. It
// is confined to the rank's goroutine.
type Domain struct {
	L      *Layout
	C      *mp.Comm
	Blocks []*Block
	slot   map[int]int // flat block id -> index in Blocks

	// WithVel includes velocities in halo traffic; required only when
	// the force law reads relative velocities (damped grain bonds).
	WithVel bool

	// PackCost is the modelled seconds per particle gathered into or
	// scattered out of an exchange buffer; set by the driver from the
	// virtual platform.
	PackCost float64

	// PackFactor multiplies PackCost for the naive-copy ablation: the
	// paper's MPI indexed datatypes let the library send strided halo
	// data directly, where a naive implementation pays an extra
	// user-side pack and unpack per particle per swap. 0 means 1.
	PackFactor float64

	// SelfMsgCost, when non-nil, charges same-rank halo legs as if
	// they went through the message runtime instead of the direct
	// copy fast path — the ablation of "the communications routines
	// are actually only called when P > 1". It receives the payload
	// byte count.
	SelfMsgCost func(bytes int) float64

	// Team, when non-nil, is the rank's thread team (hybrid, T > 1):
	// every block's binning and link generation then run across it, the
	// way the shared-memory driver's do. The virtual platform has never
	// priced link generation, so the driver hands over a pool whose
	// regions leave the team's clock and region count alone.
	Team cell.Pool

	// TC accumulates structural (non-message) event counts.
	TC trace.Counters

	// Rebalance selects the dynamic load balancer: at every Rebuild the
	// ranks exchange a per-block cost vector, a deterministic
	// repartitioner (LPT block deal or ORB cut-plane tree) computes a
	// new block→rank map, and whole blocks migrate to their new owners.
	// StrategyOff (the zero value) keeps the static block-cyclic deal,
	// for bit-compat its default.
	Rebalance Strategy

	// RebalanceHyst is the migration-hysteresis threshold: the current
	// map is kept unless the new map improves the peak load by more
	// than this relative margin. 0 means DefaultRebalanceHyst.
	RebalanceHyst float64

	// plainBox performs unwrapped displacement arithmetic inside a
	// block's self-contained extended region.
	plainBox geom.Box

	// Reused exchange scratch: same-rank leg staging, the in-flight
	// receive legs of a split-phase refresh, and the per-destination
	// migration buffers plus staged receives for the source-block merge.
	locals     []localLeg
	pending    []pendingLeg
	refreshDim int // next dimension FinishRefreshHalos must drain; -1 when idle
	migF       [][]float64
	migI       [][]int32
	recvF      [][]float64
	recvI      [][]int32
	recvAt     []int

	// Shared-window exchange state (mpism, nil/empty otherwise): the
	// node window, rank→group-index table, the owner-side window
	// offsets per (block slot, dim, side) (-1 = not windowed), the
	// reader-side legs bucketed per dimension, and the per-peer
	// directory staging buffers. All persistent, rebuilt at rebuild.
	win     *mp.Win
	winIdx  []int
	winOff  [][geom.MaxD][2]int
	winLegs [geom.MaxD][]winLeg
	dirOut  [][]int32

	// Rebalancer state and scratch (persistent, so migration epochs
	// allocate only while the pools grow).
	costVec      []float64
	costEWMA     []float64
	lptOrder     []int
	rankLoad     []float64
	newOwnerVec  []int
	prevOwner    []int
	retired      map[int]*Block // blocks sent away, cached for reuse
	blockScratch []*Block
	xferF        []float64
	xferI        []int32
	rebalT0      float64
	rebalT1      float64
	rebalanced   bool

	// sortCoresByID's tables over the id space and the per-block
	// permutations cut from one backing array.
	idSlot, idAt, idPerm []int32
	idPerms              [][]int32

	// ORB state: the adopted tree (nil until the first ORB epoch, or
	// seeded from a checkpoint) and the scratch tree the next candidate
	// is built into; the repartitioner swaps them on adoption.
	orb     *ORBTree
	orbNext *ORBTree
}

// NewDomain builds the rank-local domain over an existing layout. The
// layout is cloned: callers share one *Layout across all rank
// goroutines, and the rebalancer mutates the ownership table.
func NewDomain(l *Layout, c *mp.Comm, withVel bool) *Domain {
	if c.Size() != l.P {
		panic(fmt.Sprintf("decomp: layout for %d ranks on a %d-rank comm", l.P, c.Size()))
	}
	l = l.Clone()
	dm := &Domain{L: l, C: c, WithVel: withVel, slot: make(map[int]int), refreshDim: -1}
	for _, id := range l.BlocksOfRank(c.Rank()) {
		dm.slot[id] = len(dm.Blocks)
		dm.Blocks = append(dm.Blocks, newBlock(l, id))
	}
	dm.plainBox = geom.Box{D: l.D, Len: l.Box.Len, BC: geom.Reflecting}
	return dm
}

// PlainBox returns the non-wrapping box used for intra-block
// displacement arithmetic.
func (dm *Domain) PlainBox() geom.Box { return dm.plainBox }

// packCost returns the effective per-particle pack/unpack charge.
func (dm *Domain) packCost() float64 {
	f := dm.PackFactor
	if f <= 0 {
		f = 1
	}
	return dm.PackCost * f
}

// chargeSelf applies the self-messaging ablation cost to a local halo
// leg of n particles with per floats each.
func (dm *Domain) chargeSelf(n, per int) {
	if dm.SelfMsgCost != nil && n > 0 {
		dm.C.Compute(dm.SelfMsgCost(8 * per * n))
	}
}

// FillUniform populates the rank's blocks with its share of n global
// particles, drawing velocity components from [-vmax, vmax] (zero
// leaves them at rest). Every rank draws the identical global
// configuration from the seed and keeps only the particles whose home
// block it owns, so no startup broadcast is needed and any P yields
// the same physical system. The draw sequence matches
// particle.FillUniform/FillUniformVel exactly so that distributed and
// shared-memory runs start from identical states.
func (dm *Domain) FillUniform(n int, seed int64, vmax float64) {
	dm.FillClustered(n, seed, vmax, 1)
}

// FillClustered is FillUniform with the last coordinate compressed
// into the bottom heightFrac of the box (a settled bed of grains);
// heightFrac of 1 (or out of range) is the uniform fill. The draw
// sequence matches particle.FillClustered exactly.
func (dm *Domain) FillClustered(n int, seed int64, vmax, heightFrac float64) {
	if heightFrac <= 0 || heightFrac > 1 {
		heightFrac = 1
	}
	rng := rand.New(rand.NewSource(seed))
	l := dm.L
	last := l.D - 1
	for k := 0; k < n; k++ {
		var p, v geom.Vec
		for i := 0; i < l.D; i++ {
			p[i] = rng.Float64() * l.Box.Len[i]
			if vmax > 0 {
				v[i] = (2*rng.Float64() - 1) * vmax
			}
		}
		p[last] *= heightFrac
		id := l.BlockOfPos(p)
		if s, ok := dm.slot[id]; ok {
			b := dm.Blocks[s]
			b.PS.Append(p, v, int32(k))
			b.NCore++
		}
	}
}

// Place inserts one particle into its home block if this rank owns it;
// used by examples and tests that construct bespoke configurations.
// It must be called before the first Rebuild and with identical
// sequences on every rank.
func (dm *Domain) Place(pos, vel geom.Vec, id int32) {
	home := dm.L.BlockOfPos(pos)
	if s, ok := dm.slot[home]; ok {
		b := dm.Blocks[s]
		b.PS.Append(pos, vel, id)
		b.NCore++
	}
}

// NumCore returns the rank's total number of core particles.
func (dm *Domain) NumCore() int {
	n := 0
	for _, b := range dm.Blocks {
		n += b.NCore
	}
	return n
}

// NumLinks returns the rank's total link count (core + halo links).
func (dm *Domain) NumLinks() int {
	n := 0
	for _, b := range dm.Blocks {
		if b.List != nil {
			n += len(b.List.Links)
		}
	}
	return n
}

// MaxCoreDisp2 returns the rank-local maximum squared displacement of
// core particles since the last rebuild.
func (dm *Domain) MaxCoreDisp2() float64 {
	maxd := 0.0
	for _, b := range dm.Blocks {
		d := b.PS.MaxDisp2(&b.RefPos, b.NCore, dm.L.Box)
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

// ListsValid reports, collectively across all ranks, whether every
// core particle has moved less than skin since the last rebuild. All
// ranks receive the same answer.
func (dm *Domain) ListsValid(skin float64) bool {
	return dm.DisplacementValid(dm.MaxCoreDisp2(), skin)
}

// DisplacementValid is ListsValid for a caller that already holds the
// rank-local maximum squared displacement (the step loop's particle
// sweep measures it on the way): only the collective remains.
func (dm *Domain) DisplacementValid(localMax2, skin float64) bool {
	global := dm.C.AllreduceScalar(localMax2, mp.Max)
	return global < skin*skin
}

// Rebuild performs the full list-invalidation sequence of Section 6:
// wrap + migrate particles to their new home blocks, optionally
// reorder cores into cell order (the cache optimisation), rebuild halo
// templates and exchange halos, then reconstruct every block's cell
// grid and link list and snapshot reference positions.
func (dm *Domain) Rebuild(reorder bool) {
	dm.migrate()
	dm.rebuildMigrated(reorder)
}

// RebuildCanonical is Rebuild with every block's core particles sorted
// by ascending particle id right after the migration — the arrangement
// Place builds from an id-indexed state. It therefore continues a live
// domain on the same bits as a domain re-placed from a checkpoint of
// this state and rebuilt, with nothing torn down and the migration run
// once. Ids are dense in [0, n).
func (dm *Domain) RebuildCanonical(n int, reorder bool) {
	dm.migrate()
	dm.sortCoresByID(n)
	dm.rebuildMigrated(reorder)
}

// rebuildMigrated is the rebuild from the point where every core
// particle is wrapped and in its home block.
func (dm *Domain) rebuildMigrated(reorder bool) {
	if dm.Rebalance.Enabled() {
		dm.rebalance()
	} else {
		dm.rebalanced = false
	}
	if reorder {
		dm.reorderCores()
	}
	dm.buildHalos()
	if dm.win != nil {
		dm.buildWinExchange()
	}
	dm.buildLists()
}

// sortCoresByID puts every block's core in ascending id order in one
// O(n) pass per rank: two tables over the dense id space record which
// owned block holds each id and where, and a walk of them in id order
// deals each block its permutation. Tables and permutations live on
// the Domain, so a warm call allocates nothing.
func (dm *Domain) sortCoresByID(n int) {
	if cap(dm.idSlot) < n {
		dm.idSlot, dm.idAt = make([]int32, n), make([]int32, n)
	}
	slot := dm.idSlot[:n] // 1 + the slot of the owned block holding the id; 0: not on this rank
	at := dm.idAt[:n]     // its index in that block's store
	clear(slot)
	if nc := dm.NumCore(); cap(dm.idPerm) < nc {
		// An eighth to spare, as particle.Store.Permute keeps: a rank's
		// core count drifts from boundary to boundary.
		dm.idPerm = make([]int32, nc+nc/8)
	}
	dm.idPerms = dm.idPerms[:0]
	base := 0
	for s, b := range dm.Blocks {
		for i, id := range b.PS.ID[:b.NCore] {
			slot[id], at[id] = int32(s+1), int32(i)
		}
		dm.idPerms = append(dm.idPerms, dm.idPerm[base:base:base+b.NCore])
		base += b.NCore
	}
	for id, s := range slot {
		if s != 0 {
			dm.idPerms[s-1] = append(dm.idPerms[s-1], at[id])
		}
	}
	for s, b := range dm.Blocks {
		b.PS.Permute(dm.idPerms[s])
		dm.C.Compute(float64(b.NCore) * dm.PackCost)
	}
}

// reorderCores permutes each block's core particles into cell order
// using a binning over the block's own grid; "as cells are numbered
// according to their spatial position, this achieves spatial locality
// of data ... leaving the halo particles untouched".
func (dm *Domain) reorderCores() {
	for _, b := range dm.Blocks {
		if b.NCore == 0 {
			continue
		}
		// The block's persistent grid serves both the reorder binning
		// here and the list build that follows (buildLists re-bins it
		// over core+halo).
		g := b.Grid
		dm.bin(g, &b.PS.Pos, b.NCore)
		order := g.Order()
		b.PS.Permute(order)
		dm.TC.ReorderMoves += int64(b.NCore)
		dm.C.Compute(float64(b.NCore) * dm.PackCost)
	}
}

// bin bins the first n particles of pos into g, across the team if the
// rank has one.
func (dm *Domain) bin(g *cell.Grid, pos *geom.Coords, n int) {
	if dm.Team != nil {
		g.BinParallel(pos, n, dm.Team, &dm.TC)
	} else {
		g.Bin(pos, n, &dm.TC)
	}
}

// buildLists bins every block's core+halo particles and constructs its
// link list with the core-links-first layout.
func (dm *Domain) buildLists() {
	rc := dm.L.RC
	rc2 := rc * rc
	for _, b := range dm.Blocks {
		n := b.PS.Len()
		dm.bin(b.Grid, &b.PS.Pos, n)
		if dm.Team != nil {
			b.List = b.Grid.BuildLinksParallel(&b.PS.Pos, n, b.NCore, rc2, dm.plainBox, dm.Team, &dm.TC)
		} else {
			b.List = b.Grid.BuildLinksInto(&b.listBuf, &b.PS.Pos, n, b.NCore, rc2, dm.plainBox, &dm.TC)
		}
		for k := 0; k < dm.L.D; k++ {
			b.RefPos[k] = append(b.RefPos[k][:0], b.PS.Pos[k][:b.NCore]...)
		}
	}
}
