package shm

// TeamPool adapts a Team to the cell.Pool interface so the
// link-generation path can run thread-parallel without a dependency
// cycle. Work performed through the pool advances the team's virtual
// clock only by its fork/join overhead: the paper excludes link
// generation from its timings ("this represents a small overhead in a
// real simulation"), and notes its OpenMP version "scales rather
// poorly" anyway.
type TeamPool struct {
	Team *Team
}

// Threads implements cell.Pool.
func (p TeamPool) Threads() int { return p.Team.T }

// ParallelFor implements cell.Pool. The body runs through a region body
// the team owns, so a loop allocates nothing.
func (p TeamPool) ParallelFor(n int, body func(thread, lo, hi int)) {
	tm := p.Team
	tm.kFor = forBody{n: n, body: body}
	tm.RunRegion(&tm.kFor)
	tm.kFor.body = nil
}

// forBody is the region body of TeamPool.ParallelFor: each thread runs
// body over its static chunk of [0, n).
type forBody struct {
	n    int
	body func(thread, lo, hi int)
}

func (b *forBody) RunThread(th *Thread) {
	lo, hi := chunk(b.n, th.team.T, th.ID)
	b.body(th.ID, lo, hi)
}

// UnmodelledPool is a TeamPool whose loops charge nothing at all: they
// leave the team's clock and its region count as they found them. The
// hybrid driver builds its blocks' lists through it — its virtual clock
// has never seen link generation, on one thread or on T, and the
// regions-per-iteration figure (X1) counts the step's regions only.
type UnmodelledPool struct {
	Team *Team
}

// Threads implements cell.Pool.
func (p UnmodelledPool) Threads() int { return p.Team.T }

// ParallelFor implements cell.Pool.
func (p UnmodelledPool) ParallelFor(n int, body func(thread, lo, hi int)) {
	tm := p.Team
	clock, regions := tm.clock, tm.TC.ParallelRegions
	TeamPool(p).ParallelFor(n, body)
	tm.clock, tm.TC.ParallelRegions = clock, regions
}
