package decomp

import (
	"fmt"

	"hybriddem/internal/geom"
	"hybriddem/internal/mp"
)

// boolToInt converts for payload arithmetic.
func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// appendParticles gathers positions (and optionally velocities) of the
// indexed particles onto dst: D coordinates per particle, then D
// velocity components when withVel is set. Callers pass a persistent
// per-leg buffer resliced to [:0], so the gather allocates only while
// the buffer grows towards its steady-state size.
func appendParticles(dst []float64, b *Block, idx []int32, d int, withVel bool) []float64 {
	for _, i := range idx {
		for k := 0; k < d; k++ {
			dst = append(dst, b.PS.Pos[k][i])
		}
		if withVel {
			for k := 0; k < d; k++ {
				dst = append(dst, b.PS.Vel[k][i])
			}
		}
	}
	return dst
}

// localLeg stages one same-rank halo delivery so that all gathers of a
// dimension complete before any append mutates a store.
type localLeg struct {
	dst   *Block
	dim   int
	side  int
	shift geom.Vec
	src   *Block
	f     []float64
	ids   []int32
}

// buildHalos constructs the halo templates and performs the initial
// exchange, dimension by dimension so corner data propagates. Must run
// with empty halos (migrate guarantees this).
func (dm *Domain) buildHalos() {
	d := dm.L.D
	rc := dm.L.RC
	for dim := 0; dim < d; dim++ {
		locals := dm.locals[:0]
		// Gather + send for both faces of every owned block.
		for _, b := range dm.Blocks {
			for side := 0; side < 2; side++ {
				dir := 2*side - 1 // side 0 -> lower face -> dir -1
				nb, _, ok := dm.L.Neighbor(b.ID, dim, dir)
				if !ok {
					continue
				}
				idx := b.coreSlab(dim, side, rc)
				// Data sent towards dir lands on the *opposite* face
				// of the neighbour.
				dstSide := 1 - side
				f := appendParticles(b.packBuf[dim][side][:0], b, idx, d, dm.WithVel)
				b.packBuf[dim][side] = f
				ids := b.idBuf[dim][side][:0]
				for _, i := range idx {
					ids = append(ids, b.PS.ID[i])
				}
				b.idBuf[dim][side] = ids
				dm.C.Compute(float64(len(idx)) * dm.packCost())
				dstRank := dm.L.RankOfBlock(nb)
				if dstRank == dm.C.Rank() {
					dst := dm.Blocks[dm.slot[nb]]
					_, shift, _ := dm.L.Neighbor(nb, dim, -dir)
					locals = append(locals, localLeg{dst: dst, dim: dim, side: dstSide, shift: shift, src: b, f: f, ids: ids})
				} else {
					dm.C.Send(dstRank, dm.tagFor(phaseBuild, nb, dim, dstSide), f, ids)
				}
			}
		}
		// Append both faces of every owned block in one deterministic
		// (block, side) order, interleaving remote receives with the
		// staged same-rank legs. A block's halo layout is then a pure
		// function of (block id, dim, side) — independent of which
		// rank happens to own each neighbour — which is what lets the
		// dynamic rebalancer keep trajectories bit-identical to the
		// static block-cyclic layout.
		for _, b := range dm.Blocks {
			for side := 0; side < 2; side++ {
				dir := 2*side - 1
				nb, shift, ok := dm.L.Neighbor(b.ID, dim, dir)
				if !ok {
					continue
				}
				srcRank := dm.L.RankOfBlock(nb)
				if srcRank == dm.C.Rank() {
					for _, leg := range locals {
						if leg.dst == b && leg.side == side {
							dm.chargeSelf(len(leg.ids), d+boolToInt(dm.WithVel)*d)
							dm.appendHalo(b, leg.src.ID, srcRank, dim, side, leg.shift, leg.f, leg.ids)
							break
						}
					}
				} else {
					f, ids := dm.C.Recv(srcRank, dm.tagFor(phaseBuild, b.ID, dim, side))
					dm.appendHalo(b, nb, srcRank, dim, side, shift, f, ids)
					dm.C.FreeBuffers(f, ids)
				}
			}
		}
		dm.locals = locals[:0]
	}
}

// appendHalo unpacks one received leg into dst as a new halo segment.
func (dm *Domain) appendHalo(dst *Block, srcBlock, srcRank, dim, side int, shift geom.Vec, f []float64, ids []int32) {
	d := dm.L.D
	per := d
	if dm.WithVel {
		per = 2 * d
	}
	n := len(ids)
	if len(f) != per*n {
		panic(fmt.Sprintf("decomp: halo payload %d floats for %d ids", len(f), n))
	}
	seg := haloSeg{
		srcRank: srcRank, srcBlock: srcBlock,
		dim: dim, side: side,
		start: dst.PS.Len(), count: n, shift: shift,
	}
	for i := 0; i < n; i++ {
		var p, v geom.Vec
		for k := 0; k < d; k++ {
			p[k] = f[per*i+k] + shift[k]
		}
		if dm.WithVel {
			for k := 0; k < d; k++ {
				v[k] = f[per*i+d+k]
			}
		}
		dst.PS.Append(p, v, ids[i])
	}
	dst.segs = append(dst.segs, seg)
	dm.C.Compute(float64(n) * dm.packCost())
}

// pendingLeg is one in-flight receive of a split-phase halo refresh:
// the posted request plus the segment it will overwrite.
type pendingLeg struct {
	req *mp.Request
	b   *Block
	seg haloSeg
}

// RefreshHalos re-sends every halo template and overwrites the halo
// segments in place — the per-iteration halo swap. "The same MPI types
// can be used for many iterations until the list of links becomes
// invalid." It is exactly BeginRefreshHalos followed immediately by
// FinishRefreshHalos; drivers that overlap communication with the
// core-link force loop call the two halves themselves.
func (dm *Domain) RefreshHalos() {
	dm.BeginRefreshHalos()
	dm.FinishRefreshHalos()
}

// BeginRefreshHalos starts a split-phase halo refresh: it packs and
// sends the first dimension's legs and posts the matching receives,
// then returns so the caller can compute on core data while the
// messages are in flight. Only dimension 0 can be posted here — later
// dimensions' send templates include halo particles received in
// earlier dimensions (corner data propagates through faces), so
// FinishRefreshHalos stages them leg by leg as each dimension lands.
// Core positions are read (packed) only inside Begin and inside the
// per-dimension posting, never concurrently with the caller's force
// loop; halo storage is written only by FinishRefreshHalos.
func (dm *Domain) BeginRefreshHalos() {
	if dm.refreshDim >= 0 {
		panic("decomp: BeginRefreshHalos with a refresh already in flight")
	}
	dm.postRefreshDim(0)
	dm.refreshDim = 0
}

// FinishRefreshHalos drains an in-flight refresh to completion: each
// dimension in order waits its posted receives, overwrites the halo
// segments, and posts the next dimension. On return every halo
// position (and velocity) is current.
func (dm *Domain) FinishRefreshHalos() {
	if dm.refreshDim < 0 {
		panic("decomp: FinishRefreshHalos without BeginRefreshHalos")
	}
	for dm.FinishRefreshDim() {
	}
}

// FinishRefreshDim drains exactly one dimension of an in-flight
// refresh: it waits that dimension's posted receives (in the same
// deterministic block/segment order as the blocking swap), overwrites
// the halo segments, applies the staged same-rank legs, and posts the
// next dimension's legs. It returns true while later dimensions
// remain, so a driver can interleave the drain stages with compute
// that reads no halo data — posting each dimension as early as its
// inputs exist keeps a neighbour's wait on this rank short.
func (dm *Domain) FinishRefreshDim() bool {
	if dm.refreshDim < 0 {
		panic("decomp: FinishRefreshDim without BeginRefreshHalos")
	}
	d := dm.L.D
	per := d
	if dm.WithVel {
		per = 2 * d
	}
	dim := dm.refreshDim
	if dm.win != nil {
		// Close the write epoch: every node peer has packed its
		// dimension-dim legs into its window (postRefreshDim runs before
		// any blocking wait on this dimension), so after the fence the
		// windowed legs are read directly from the owners' windows —
		// same floats, same overwriteSeg unpack as the message path.
		dm.win.Fence()
		for _, wl := range dm.winLegs[dim] {
			f := dm.win.GetView(wl.peer, wl.off, per*wl.seg.count)
			dm.writeSeg(wl.b, wl.seg, f, per)
		}
	}
	for i := range dm.pending {
		pl := &dm.pending[i]
		f, ids := pl.req.Wait()
		dm.overwriteSeg(pl.b, pl.seg, f, per)
		dm.C.FreeBuffers(f, ids)
		pl.req.Release()
		*pl = pendingLeg{}
	}
	dm.pending = dm.pending[:0]
	for _, leg := range dm.locals {
		dst := leg.dst
		dm.chargeSelf(len(leg.f)/per, per)
		for _, seg := range dst.segs {
			if seg.dim == dim && seg.side == leg.side && seg.srcBlock == leg.src.ID && seg.srcRank == dm.C.Rank() {
				dm.overwriteSeg(dst, seg, leg.f, per)
				break
			}
		}
	}
	dm.locals = dm.locals[:0]
	if dim+1 < d {
		dm.postRefreshDim(dim + 1)
		dm.refreshDim = dim + 1
		return true
	}
	dm.refreshDim = -1
	return false
}

// postRefreshDim packs and sends both faces of every owned block for
// one dimension (staging same-rank legs in dm.locals) and posts the
// receives for that dimension's remote segments in the deterministic
// order FinishRefreshHalos will wait on them.
func (dm *Domain) postRefreshDim(dim int) {
	d := dm.L.D
	per := d
	if dm.WithVel {
		per = 2 * d
	}
	for bi, b := range dm.Blocks {
		for side := 0; side < 2; side++ {
			dir := 2*side - 1
			nb, _, ok := dm.L.Neighbor(b.ID, dim, dir)
			if !ok {
				continue
			}
			idx := b.sendIdx[dim][side]
			dstSide := 1 - side
			dstRank := dm.L.RankOfBlock(nb)
			if dstRank != dm.C.Rank() {
				if off := dm.winOffFor(bi, dim, side); off >= 0 {
					// Same-node neighbour: pack straight into this rank's
					// shared window at the leg's reserved offset; the
					// reader loads it after the dimension's fence.
					packParticles(dm.win.Slice(off, per*len(idx)), b, idx, d, dm.WithVel)
					dm.C.Compute(float64(len(idx)) * dm.packCost())
					continue
				}
			}
			f := appendParticles(b.packBuf[dim][side][:0], b, idx, d, dm.WithVel)
			b.packBuf[dim][side] = f
			dm.C.Compute(float64(len(idx)) * dm.packCost())
			if dstRank == dm.C.Rank() {
				dst := dm.Blocks[dm.slot[nb]]
				dm.locals = append(dm.locals, localLeg{dst: dst, dim: dim, side: dstSide, src: b, f: f})
			} else {
				dm.C.ISend(dstRank, dm.tagFor(phaseRefresh, nb, dim, dstSide), f, nil).Release()
			}
		}
	}
	for _, b := range dm.Blocks {
		for _, seg := range b.segs {
			if seg.dim != dim || seg.srcRank == dm.C.Rank() {
				continue
			}
			if dm.winPeer(seg.srcRank) >= 0 {
				continue // served by a fenced window load, not a message
			}
			req := dm.C.IRecv(seg.srcRank, dm.tagFor(phaseRefresh, b.ID, seg.dim, seg.side))
			dm.pending = append(dm.pending, pendingLeg{req: req, b: b, seg: seg})
		}
	}
}

// winOffFor returns the window offset of an owned leg, or -1 when the
// leg is not windowed (no window attached, or the destination rank is
// on another node).
func (dm *Domain) winOffFor(bi, dim, side int) int {
	if dm.win == nil {
		return -1
	}
	return dm.winOff[bi][dim][side]
}

// overwriteSeg writes refreshed coordinates (and velocities) into an
// existing halo segment and charges the receive-side scatter.
func (dm *Domain) overwriteSeg(b *Block, seg haloSeg, f []float64, per int) {
	dm.writeSeg(b, seg, f, per)
	dm.C.Compute(float64(seg.count) * dm.packCost())
}

// writeSeg is the scatter itself, uncharged: the windowed refresh uses
// it because its cost is the fenced window load (GetView) — one
// streaming pass through the owner's packed leg at load bandwidth is
// the whole transfer, with no separate receive-buffer scatter to pay.
func (dm *Domain) writeSeg(b *Block, seg haloSeg, f []float64, per int) {
	d := dm.L.D
	if len(f) != per*seg.count {
		panic(fmt.Sprintf("decomp: refresh payload %d floats for segment of %d", len(f), seg.count))
	}
	for i := 0; i < seg.count; i++ {
		at := seg.start + i
		for k := 0; k < d; k++ {
			b.PS.Pos[k][at] = f[per*i+k] + seg.shift[k]
		}
		if dm.WithVel {
			for k := 0; k < d; k++ {
				b.PS.Vel[k][at] = f[per*i+d+k]
			}
		}
	}
}

// migrate wraps core positions into the global box and moves particles
// whose home block changed, then clears halos. Movers travel in one
// all-to-all round of (possibly empty) per-rank messages carrying
// (srcBlock, dstBlock, id) triples plus pos+vel floats.
func (dm *Domain) migrate() {
	l := dm.L
	d := l.D
	me := dm.C.Rank()
	perF := 2 * d // pos + vel always travel on migration

	for _, b := range dm.Blocks {
		b.resetHalo()
	}

	if dm.migF == nil {
		dm.migF = make([][]float64, l.P)
		dm.migI = make([][]int32, l.P)
	}
	outF := dm.migF
	outI := dm.migI
	for r := 0; r < l.P; r++ {
		outF[r] = outF[r][:0]
		outI[r] = outI[r][:0]
	}
	moved := int64(0)
	for _, b := range dm.Blocks {
		// The deferred wrap: a coordinate that has crossed a periodic
		// face since the last rebuild is folded here, one component
		// stream at a time; one still inside the box — every one, in a
		// reflecting box — costs a comparison.
		for k := 0; k < d; k++ {
			l.Box.FoldSlice(b.PS.Pos[k][:b.NCore], k)
		}
		for i := 0; i < b.NCore; {
			p := b.PS.PosAt(i)
			home := l.BlockOfPos(p)
			if home == b.ID {
				i++
				continue
			}
			dst := l.RankOfBlock(home)
			outI[dst] = append(outI[dst], int32(b.ID), int32(home), b.PS.ID[i])
			v := b.PS.VelAt(i)
			buf := outF[dst]
			for k := 0; k < d; k++ {
				buf = append(buf, p[k])
			}
			for k := 0; k < d; k++ {
				buf = append(buf, v[k])
			}
			outF[dst] = buf
			b.PS.Remove(i)
			b.NCore--
			moved++
			// do not advance i: Remove swapped a new particle in
		}
	}
	dm.TC.MigratedParts += moved
	dm.C.Compute(float64(moved) * dm.packCost())

	for r := 0; r < l.P; r++ {
		if r == me {
			continue
		}
		dm.C.Send(r, dm.tagFor(phaseMigrate, 0, 0, 0), outF[r], outI[r])
	}

	// Stage every rank's payload, then deliver grouped by *source*
	// block id ascending. Each rank's payload is already sorted by
	// source block (the scan above walks blocks in ascending order), so
	// a P-way cursor merge visits migrants in (srcBlock, position in
	// source store) order — a delivery order independent of which rank
	// owned which source block, the same canonicalisation the halo
	// build applies, needed for rebalanced runs to stay bit-identical
	// to the static layout. Source blocks are disjoint across ranks, so
	// there are no merge ties.
	if dm.recvF == nil {
		dm.recvF = make([][]float64, l.P)
		dm.recvI = make([][]int32, l.P)
		dm.recvAt = make([]int, l.P)
	}
	recvF, recvI, at := dm.recvF, dm.recvI, dm.recvAt
	for r := 0; r < l.P; r++ {
		if r == me {
			recvF[r], recvI[r] = outF[me], outI[me]
		} else {
			recvF[r], recvI[r] = dm.C.Recv(r, dm.tagFor(phaseMigrate, 0, 0, 0))
		}
		at[r] = 0
	}
	for {
		src := -1
		best := int32(0)
		for r := 0; r < l.P; r++ {
			if at[r] >= len(recvI[r]) {
				continue
			}
			if blk := recvI[r][at[r]]; src < 0 || blk < best {
				src, best = r, blk
			}
		}
		if src < 0 {
			break
		}
		// Deliver the full run of entries from this source block.
		i0 := at[src]
		i := i0
		for i < len(recvI[src]) && recvI[src][i] == best {
			i += 3
		}
		dm.deliverMigrants(recvF[src][i0/3*perF:i/3*perF], recvI[src][i0:i], perF)
		at[src] = i
	}
	for r := 0; r < l.P; r++ {
		if r != me {
			dm.C.FreeBuffers(recvF[r], recvI[r])
		}
		recvF[r], recvI[r] = nil, nil
	}
}

// deliverMigrants appends a migration payload's particles to their
// home blocks. Halos are empty during migration, so appending grows
// the cores directly. ints carries (srcBlock, dstBlock, id) triples.
func (dm *Domain) deliverMigrants(f []float64, ints []int32, perF int) {
	d := dm.L.D
	n := len(ints) / 3
	if len(f) != perF*n {
		panic(fmt.Sprintf("decomp: migrate payload %d floats for %d particles", len(f), n))
	}
	for i := 0; i < n; i++ {
		home := int(ints[3*i+1])
		id := ints[3*i+2]
		s, ok := dm.slot[home]
		if !ok {
			panic(fmt.Sprintf("decomp: rank %d received migrant for foreign block %d", dm.C.Rank(), home))
		}
		var p, v geom.Vec
		for k := 0; k < d; k++ {
			p[k] = f[perF*i+k]
			v[k] = f[perF*i+d+k]
		}
		b := dm.Blocks[s]
		b.PS.Append(p, v, id)
		b.NCore++
	}
	dm.C.Compute(float64(n) * dm.packCost())
}
