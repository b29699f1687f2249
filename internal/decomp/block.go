package decomp

import (
	"hybriddem/internal/cell"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
)

// haloSeg describes one contiguous run of halo particles in a block's
// store: where it came from, which exchange leg delivers it, and the
// periodic shift applied to incoming coordinates. Segments are
// recorded in append order at halo-build time and refreshed in the
// same order every iteration, so the strided halo data always lands
// "into contiguous storage immediately following the data for the core
// particles".
type haloSeg struct {
	srcRank  int
	srcBlock int
	dim      int
	side     int // 0: data arrives on the lower face, 1: upper
	start    int // first index in the block store
	count    int
	shift    geom.Vec
}

// Block is one spatial block of the block-cyclic distribution:
// "each individual block is effectively treated like a separate
// simulation with time-varying boundary conditions provided by the
// halo particles".
type Block struct {
	ID         int
	CoreOrigin geom.Vec
	CoreSpan   geom.Vec
	ExtOrigin  geom.Vec
	ExtSpan    geom.Vec

	PS    *particle.Store
	NCore int // particles [0:NCore) are core; the rest are halo copies

	Grid *cell.Grid
	List *cell.List

	// View is List pruned to the Domain's ViewCut2 at the last list
	// build, while the particles stood at RefPos; empty without one.
	View cell.View

	// RefPos snapshots core positions at the last list build for the
	// rebuild criterion (component-major, like the store).
	RefPos geom.Coords

	// sendIdx are the halo templates: for each dimension and face,
	// the local particle indices whose data is sent each swap — the
	// role MPI indexed datatypes play in the paper. Valid until the
	// next rebuild; backing arrays are reused across rebuilds.
	sendIdx [geom.MaxD][2][]int32

	// packBuf and idBuf are the per-leg persistent staging buffers the
	// exchange gathers into before handing the data to the message
	// runtime (which copies into its own pooled buffers), so neither
	// the per-iteration refresh nor the rebuild exchange allocates in
	// steady state.
	packBuf [geom.MaxD][2][]float64
	idBuf   [geom.MaxD][2][]int32

	// listBuf owns the reused staging and backing storage of the
	// block's link list (b.List points into it after every rebuild).
	listBuf cell.ListBuffer

	segs []haloSeg
}

func newBlock(l *Layout, id int) *Block {
	b := &Block{ID: id}
	b.CoreOrigin, b.CoreSpan = l.CoreRegion(id)
	b.ExtOrigin, b.ExtSpan = l.ExtRegion(id)
	b.PS = particle.New(l.D, 0)
	// The block's extended region never changes, so one grid serves
	// every rebuild (binning storage is reused inside the grid).
	b.Grid = cell.NewGrid(l.D, b.ExtOrigin, b.ExtSpan, l.RC, false)
	return b
}

// coreSlab returns the local particle indices (core and
// already-present halo) lying within the halo-width slab against the
// block's lower (side 0) or upper (side 1) core face in dimension dim.
func (b *Block) coreSlab(dim, side int, rc float64) []int32 {
	var lo, hi float64
	if side == 0 {
		lo = b.CoreOrigin[dim]
		hi = lo + rc
	} else {
		hi = b.CoreOrigin[dim] + b.CoreSpan[dim]
		lo = hi - rc
	}
	out := b.sendIdx[dim][side][:0]
	// One contiguous component stream: the slab test reads only the
	// dim coordinate, so the SoA layout turns this scan into a single
	// sequential sweep.
	for i, x := range b.PS.Pos[dim] {
		if x >= lo && x < hi {
			out = append(out, int32(i))
		}
	}
	b.sendIdx[dim][side] = out
	return out
}

// resetHalo drops all halo particles and forgets templates/segments,
// retaining their storage for the next build.
func (b *Block) resetHalo() {
	b.PS.Truncate(b.NCore)
	for d := range b.sendIdx {
		b.sendIdx[d][0] = b.sendIdx[d][0][:0]
		b.sendIdx[d][1] = b.sendIdx[d][1][:0]
	}
	b.segs = b.segs[:0]
}

// NumHalo returns the number of halo copies currently appended.
func (b *Block) NumHalo() int { return b.PS.Len() - b.NCore }
