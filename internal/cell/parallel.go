package cell

import (
	"hybriddem/internal/geom"
	"hybriddem/internal/trace"
)

// Pool abstracts a thread team for the parallel link-generation path
// so this package stays independent of the shm runtime (which imports
// it). shm provides the adapter.
type Pool interface {
	// Threads returns the team size T.
	Threads() int
	// ParallelFor runs body over static contiguous chunks of [0, n),
	// one per thread, concurrently.
	ParallelFor(n int, body func(thread, lo, hi int))
}

// ensureThreadScratch sizes the grid's per-thread count and cursor
// arrays for T threads of nc cells each, reusing prior capacity.
func (g *Grid) ensureThreadScratch(T, nc int) {
	if len(g.perThread) < T {
		g.perThread = append(g.perThread, make([][]int32, T-len(g.perThread))...)
		g.curThread = append(g.curThread, make([][]int32, T-len(g.curThread))...)
		g.unsorted = make([]bool, T)
	}
	for t := 0; t < T; t++ {
		g.perThread[t] = roomFor(g.perThread[t], nc)
		g.curThread[t] = roomFor(g.curThread[t], nc)
	}
}

// poolBodies are the loop bodies the grid hands to a Pool, bound to the
// grid once: a method value allocates its closure, so binding per call
// would cost every warm rebuild an allocation per parallel loop.
type poolBodies struct {
	count, scatter, gather, sweep func(thread, lo, hi int)
}

func (g *Grid) poolBodies() *poolBodies {
	if g.bodies.count == nil {
		g.bodies = poolBodies{count: g.binCount, scatter: g.binScatter, gather: g.gatherChunk, sweep: g.sweepChunk}
	}
	return &g.bodies
}

// BinParallel is the thread-parallel Bin: the paper's Section 7
// parallelises link generation with "parallel loops over particles
// (when binning into cells)", resolving the inter-thread dependency
// on the cell counts "using simple array-reduction methods" — each
// thread counts into a private array, the counts are merged, and a
// second parallel pass scatters particles using per-thread per-cell
// cursors. The result is bit-identical to the serial Bin.
func (g *Grid) BinParallel(pos *geom.Coords, n int, pool Pool, tc *trace.Counters) {
	T := pool.Threads()
	if T <= 1 {
		g.Bin(pos, n, tc)
		return
	}
	nc := g.sizeBins(n)
	g.ensureThreadScratch(T, nc)
	g.binPos = pos
	bodies := g.poolBodies()

	// Pass 1: classify particles and count per thread (the private
	// arrays of the array-reduction method).
	pool.ParallelFor(n, bodies.count)

	// The order is the identity when the cell indices ascend: inside
	// every thread's chunk, and from each chunk's last to the next
	// non-empty chunk's first.
	g.identity = true
	for t := 0; t < T; t++ {
		lo := t * n / T
		if g.unsorted[t] || lo > 0 && lo < n && g.cellOf[lo] < g.cellOf[lo-1] {
			g.identity = false
		}
	}

	// Merge: global counts and prefix starts (serial over cells; the
	// cell count is far below the particle count).
	perThread := g.perThread
	for c := 0; c < nc; c++ {
		var sum int32
		for t := 0; t < T; t++ {
			sum += perThread[t][c]
		}
		g.count[c] = sum
	}
	g.start[0] = 0
	for c := 0; c < nc; c++ {
		g.start[c+1] = g.start[c] + g.count[c]
	}

	// Per-thread scatter cursors: thread t's slot in cell c begins
	// after every earlier thread's contribution, which reproduces the
	// serial counting sort's ascending-index order exactly.
	cursors := g.curThread
	for t := 0; t < T; t++ {
		cur := cursors[t]
		for c := 0; c < nc; c++ {
			off := g.start[c]
			for u := 0; u < t; u++ {
				off += perThread[u][c]
			}
			cur[c] = off
		}
	}

	// Pass 2: scatter into the cell-ordered list.
	pool.ParallelFor(n, bodies.scatter)
	g.binPos = nil

	if tc != nil {
		tc.CellBinOps += int64(n)
	}
}

// binCount is BinParallel's first pass over thread t's particles.
func (g *Grid) binCount(t, lo, hi int) {
	counts := g.perThread[t]
	for c := range counts {
		counts[c] = 0
	}
	prev, ascending := int32(0), true
	for i := lo; i < hi; i++ {
		c := g.cellIndexAt(g.binPos, i)
		g.cellOf[i] = c
		counts[c]++
		ascending = ascending && c >= prev
		prev = c
	}
	g.unsorted[t] = !ascending
}

// binScatter is BinParallel's second pass over thread t's particles.
func (g *Grid) binScatter(t, lo, hi int) {
	cur := g.curThread[t]
	for i := lo; i < hi; i++ {
		c := g.cellOf[i]
		g.order[cur[c]] = int32(i)
		cur[c]++
	}
}

// BuildLinksParallel is the thread-parallel BuildLinks: "link
// generation over cells". Each thread builds the links of a
// contiguous cell range into private lists which are concatenated in
// cell order, so the result matches the serial builder exactly
// (including the core-links-first layout). One thread, and the
// degenerate small-box path, build serially into the same grid-owned
// storage. That storage — the returned list's backing array, which the
// first thread emits into directly, and the other threads' staging — is
// reused across rebuilds, so steady-state rebuilds are allocation-free;
// the returned List is invalidated by the next BuildLinksParallel on
// the same grid.
func (g *Grid) BuildLinksParallel(pos *geom.Coords, n, nCore int, rc2 float64, box geom.Box, pool Pool, tc *trace.Counters) *List {
	T := pool.Threads()
	if T <= 1 || g.degenerate {
		return g.BuildLinksInto(&g.own, pos, n, nCore, rc2, box, tc)
	}
	nc := g.NumCells()
	if len(g.builders) < T {
		g.builders = make([]linkBuilder, T)
		g.threadBufs = append(g.threadBufs, make([]ListBuffer, T-len(g.threadBufs))...)
	}
	g.cur = g.begin(pos, n, nCore, rc2, box)
	bodies := g.poolBodies()
	if g.cur.nHalo != nil {
		pool.ParallelFor(nc, bodies.gather)
	}
	pool.ParallelFor(nc, bodies.sweep)
	g.cur = build{}

	out := &g.own.list
	for t := 1; t < T; t++ {
		out.Links = append(out.Links, g.threadBufs[t].list.Links...)
		out.DistSum += g.threadBufs[t].list.DistSum
	}
	out.NCore = len(out.Links)
	out.Links = append(out.Links, g.own.halo...)
	for t := 1; t < T; t++ {
		out.Links = append(out.Links, g.threadBufs[t].halo...)
	}
	if tc != nil {
		for t := 0; t < T; t++ {
			tc.PairChecks += g.builders[t].checks
		}
		tc.LinkBuilds++
	}
	return out
}

// threadBuf returns the storage thread t emits into: the first thread's
// core links open the final list, so they are emitted in place.
func (g *Grid) threadBuf(t int) *ListBuffer {
	if t == 0 {
		return &g.own
	}
	return &g.threadBufs[t]
}

// gatherChunk is BuildLinksParallel's gather over thread t's cells.
func (g *Grid) gatherChunk(t, clo, chi int) {
	g.gatherCells(&g.cur, int32(clo), int32(chi))
}

// sweepChunk is BuildLinksParallel's link generation over thread t's
// cells.
func (g *Grid) sweepChunk(t, clo, chi int) {
	lb := &g.builders[t]
	lb.build, lb.g = g.cur, g
	buf := g.threadBuf(t)
	lb.open(buf)
	lb.cells(int32(clo), int32(chi))
	lb.close(buf)
}
