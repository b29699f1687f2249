package mp

import "fmt"

// This file is the MPI-3 shared-memory subset the mpism mode is built
// on: MPI_Comm_split_type(MPI_COMM_TYPE_SHARED) becomes SplitNode,
// MPI_Win_allocate_shared becomes NewWin/Reserve, and the active-target
// epoch discipline of MPI_Win_fence becomes Fence. Ranks that share an
// SMP node expose a window of float64 storage to each other; a peer
// reads halo data straight out of the owner's window between fences
// instead of receiving a message.

// NodeGroup is the set of ranks sharing one SMP node, as reported by
// the run's Network. Every member computes the identical group without
// communication (node membership is a pure function of the rank), so
// the group carries deterministic rank ordering: ascending.
type NodeGroup struct {
	c      *Comm
	ranks  []int // ascending member ranks
	index  int   // this rank's position in ranks
	winSeq int   // per-rank counter of windows created on this group
}

// SplitNode groups the communicator by SMP node — the analogue of
// MPI_Comm_split_type(MPI_COMM_TYPE_SHARED): the returned group holds
// every rank r with SameNode(self, r), in ascending order. Under
// ZeroNetwork all ranks share one node; under a platform network the
// grouping follows its CPUsPerNode blocking.
func (c *Comm) SplitNode() *NodeGroup {
	g := &NodeGroup{c: c, index: -1}
	for r := 0; r < c.size; r++ {
		if c.w.net.SameNode(c.rank, r) {
			if r == c.rank {
				g.index = len(g.ranks)
			}
			g.ranks = append(g.ranks, r)
		}
	}
	if g.index < 0 {
		panic(fmt.Sprintf("mp: network does not place rank %d on its own node", c.rank))
	}
	return g
}

// Size returns the number of ranks on the node.
func (g *NodeGroup) Size() int { return len(g.ranks) }

// Ranks returns the member ranks in ascending order. The caller must
// not modify the slice.
func (g *NodeGroup) Ranks() []int { return g.ranks }

// WinCosts prices shared-window traffic on the virtual platform: a
// fenced load streams the owner's data through the reader's cache at
// LoadBw bytes/second (no message latency, no send-side copy), and
// every fence pays FenceLat on top of the group synchronisation. The
// zero value models both as free (correctness runs).
type WinCosts struct {
	LoadBw   float64 // bytes/second read from a node peer's window
	FenceLat float64 // seconds per fence beyond the clock equalisation
}

// winKey identifies one shared window world-wide: the group's lowest
// rank plus the creation ordinal on that group. Group members create
// windows in identical program order, so their ordinals agree.
type winKey struct {
	leader int
	idx    int
}

// winShared is the node-global state of one window: every member's
// published storage plus the fences' rendezvous over the group. bufs
// is written under collMu (Reserve) and read lock-free by GetView —
// the publication fence inside Reserve orders the writes before any
// peer's read.
type winShared struct {
	bufs  [][]float64
	fence *rendezvous
}

// Win is one rank's handle on a node-shared window. Every group member
// must create its windows in the same program order; handles sharing a
// (group, ordinal) pair address the same storage. The access
// discipline is MPI_Win_fence active-target epochs: a rank writes only
// its own region (Slice), a fence separates the write epoch from the
// read epoch, and peers then load any member's region (GetView) until
// the next fence.
type Win struct {
	g     *NodeGroup
	sh    *winShared
	costs WinCosts
	local []float64 // this rank's storage, also published in sh.bufs
}

// NewWin creates (or attaches to) a shared window on the node group.
// Collective over the group: every member must call it, in the same
// order relative to its other windows.
func NewWin(g *NodeGroup, costs WinCosts) *Win {
	w := g.c.w
	key := winKey{leader: g.ranks[0], idx: g.winSeq}
	g.winSeq++
	w.winMu.Lock()
	if w.wins == nil {
		w.wins = make(map[winKey]*winShared)
	}
	sh := w.wins[key]
	if sh == nil {
		sh = &winShared{
			bufs:  make([][]float64, len(g.ranks)),
			fence: newRendezvous(len(g.ranks)),
		}
		w.wins[key] = sh
	}
	w.winMu.Unlock()
	return &Win{g: g, sh: sh, costs: costs}
}

// Group returns the node group the window spans.
func (win *Win) Group() *NodeGroup { return win.g }

// Reserve sizes this rank's window to n float64 slots and publishes
// the storage to the group. Collective over the group: every member
// must call it at the same point (the drivers call it at every list
// rebuild), and the internal fence orders the publication before any
// peer's load. Existing capacity is reused, so steady-state calls with
// a stable size allocate nothing.
func (win *Win) Reserve(n int) {
	if cap(win.local) < n {
		win.local = make([]float64, n, n+n/4+8)
	}
	win.local = win.local[:n]
	w := win.g.c.w
	w.collMu.Lock()
	win.sh.bufs[win.g.index] = win.local
	w.collMu.Unlock()
	win.Fence()
}

// Slice returns this rank's window region [off, off+n) for in-place
// packing; the halo exchange gathers straight into it. Writes to a
// window are owner-only: remote data moves by fenced loads, never by
// remote stores, so no write ever contends.
func (win *Win) Slice(off, n int) []float64 {
	return win.local[off : off+n]
}

// GetView returns a direct read-only view of group member peer's
// window region [off, off+n) and advances the reader's clock by the
// modelled load (a load from one's own region is free). The view is
// valid only within the current fence epoch: the caller must not
// retain it across the next Fence (or the owner's next Reserve).
func (win *Win) GetView(peer, off, n int) []float64 {
	c := win.g.c
	bytes := 8 * n
	if win.costs.LoadBw > 0 && peer != win.g.index {
		c.Compute(float64(c.modelBytes(bytes)) / win.costs.LoadBw)
	}
	c.TC.WinLoadBytes += int64(bytes)
	return win.sh.bufs[peer][off : off+n]
}

// Fence closes the current access epoch: it blocks until every group
// member has entered the same fence, equalises the members' clocks at
// the group maximum plus FenceLat, and orders every write before the
// fence against every load after it (the rendezvous runs under the
// collective mutex, which carries the happens-before edge). A rank
// parked here gets the same deadline treatment as a blocked receive or
// collective: a panicked peer surfaces as a typed Abandoned fault, and
// with a watchdog armed a fence blocked past the deadline surfaces as
// a typed Timeout fault — a killed intra-node peer cannot hang the
// windowed exchange.
func (win *Win) Fence() {
	g := win.g
	c := g.c
	c.TC.WinFences++
	if len(g.ranks) == 1 {
		return
	}
	c.meet(win.sh.fence, g.index, nil, Sum, win.costs.FenceLat, "fence")
}
