// Package shm is a shared-memory (OpenMP-style) runtime: fork-join
// thread teams with statically scheduled parallel loops, intra-team
// barriers, per-particle locks, and the paper's five strategies for
// protecting concurrent updates of the global force array (atomic,
// selected atomic, and the critical / stripe / transpose array
// reductions).
//
// Threads are goroutines, so loops really run in parallel on the host;
// each thread additionally carries a virtual clock that the kernels
// advance using the cost constants of the virtual platform. A parallel
// region's modelled duration is fork + max over threads + join,
// mirroring the fork/join overhead the paper measures with the OpenMP
// microbenchmark suite.
//
// Like a real OpenMP runtime the team keeps its worker threads alive
// between regions: goroutines are spawned once (lazily, at the first
// parallel region) and parked on a condition variable between regions,
// so entering a region performs no allocation — a requirement of the
// zero-allocation steady-state step.
package shm

import (
	"fmt"
	"sync"

	"hybriddem/internal/fault"
	"hybriddem/internal/trace"
)

// Costs is the set of modelled per-event overheads a virtual platform
// charges inside shared-memory kernels. All values are seconds. The
// machine package derives these from a platform; the zero value is a
// free machine (tests).
type Costs struct {
	ForkJoin      float64 // per parallel region entered (whole-team cost)
	Barrier       float64 // per intra-team barrier (whole-team cost)
	Critical      float64 // per critical-section entry
	AtomicTaken   float64 // per protected force update
	ReductionWord float64 // per word combined by an array reduction
	PerLink       float64 // compute+memory per link visited
	PerContact    float64 // extra per in-range pair (sqrt + inverse)
	PerUpdate     float64 // per unprotected force-array accumulation
	PerParticle   float64 // per particle position update

	// HaloWork weights the charges of halo links relative to core
	// links. Halo link counts are a surface effect, so when a
	// scaled-down run models a larger system the drivers set this to
	// surfScale/workScale (< 1); zero means 1.
	HaloWork float64
}

// haloWork returns the halo-link weight, defaulting to 1.
func (c Costs) haloWork() float64 {
	if c.HaloWork == 0 {
		return 1
	}
	return c.HaloWork
}

// ScaleWork multiplies the per-work-item costs by work and the
// per-protected-update cost by atomic, leaving the per-event
// overheads (fork/join, barrier, critical) untouched. The drivers use
// it to model a larger system than the one actually run: bulk work
// counts grow linearly with the particle number, while the
// selected-atomic conflict counts live on thread-chunk boundaries and
// grow only with the surface power (full-atomic locking passes
// atomic == work since it locks every update).
func (c Costs) ScaleWork(work, atomic float64) Costs {
	c.AtomicTaken *= atomic
	c.ReductionWord *= work
	c.PerLink *= work
	c.PerContact *= work
	c.PerUpdate *= work
	c.PerParticle *= work
	return c
}

// Thread is one member of a team during a parallel region. It owns a
// virtual clock and private counters; nothing on it is synchronised,
// so kernels may use it freely on the hot path.
type Thread struct {
	ID    int
	clock float64
	TC    trace.Counters
	team  *Team
}

// Compute advances the thread's virtual clock by dt seconds.
func (th *Thread) Compute(dt float64) {
	if dt > 0 {
		th.clock += dt
	}
}

// Clock returns the thread's current virtual time.
func (th *Thread) Clock() float64 { return th.clock }

// Barrier synchronises all threads of the enclosing region and
// equalises their clocks to the max plus the platform's barrier cost.
func (th *Thread) Barrier() {
	th.team.bar.await(th)
	th.TC.TeamBarriers++
}

// RegionBody is the work of one parallel region. Hot kernels implement
// it on a reused struct (typically stored on the Team or an updater) so
// that entering a region does not allocate; cold paths use Region,
// which adapts a plain closure.
type RegionBody interface {
	RunThread(th *Thread)
}

// funcBody adapts a closure to RegionBody for the convenience Region
// entry point. Func values are pointer-shaped, so the interface
// conversion itself does not allocate (the closure might).
type funcBody func(th *Thread)

func (f funcBody) RunThread(th *Thread) { f(th) }

// Team is a reusable fork-join team of T threads bound to cost
// constants. A Team is not safe for concurrent regions; in hybrid runs
// each rank owns its own team, exactly as each MPI process owns its
// OpenMP thread pool.
//
// The T-1 worker goroutines are spawned at the first parallel region
// and then parked between regions. They hold a reference to the Team,
// so a long-lived program that discards a team should Close it;
// forgetting to Close leaks the parked goroutines but is otherwise
// harmless (tests routinely let teams die with the process).
type Team struct {
	T     int
	Costs Costs
	clock float64
	TC    trace.Counters // merged thread counters plus region counts
	bar   *clockBarrier
	mu    sync.Mutex // guards Critical

	// Persistent region machinery: reused Thread records, reused panic
	// slots, and the condition variables that park the workers.
	threads []*Thread
	panics  []any
	body    RegionBody
	runMu   sync.Mutex
	runC    *sync.Cond // workers wait here for the next region
	doneC   *sync.Cond // master waits here for region completion
	gen     int        // region generation, guarded by runMu
	running int        // workers still inside the current region
	started bool       // workers spawned
	closed  bool

	// pendingBody is the body dispatched by StartRegion, held until
	// FinishRegion runs the master's share and joins.
	pendingBody RegionBody

	// Reused bodies for the allocation-free kernel entry points
	// (kernels.go, pool.go).
	kZeroB  zeroBlocksBody
	kIntegB integrateBlocksBody
	kFor    forBody
	kPart   []sweepPartial // per-thread results of the sweep regions
}

// NewTeam returns a team of t threads with the given cost constants.
func NewTeam(t int, costs Costs) *Team {
	if t < 1 {
		panic(fmt.Sprintf("shm: team size %d", t))
	}
	tm := &Team{T: t, Costs: costs, bar: newClockBarrier(t, costs.Barrier)}
	tm.runC = sync.NewCond(&tm.runMu)
	tm.doneC = sync.NewCond(&tm.runMu)
	tm.threads = make([]*Thread, t)
	tm.panics = make([]any, t)
	tm.kPart = make([]sweepPartial, t)
	for i := range tm.threads {
		tm.threads[i] = &Thread{ID: i, team: tm}
	}
	return tm
}

// Clock returns the team's virtual time (advanced at each region join).
func (tm *Team) Clock() float64 { return tm.clock }

// SetCosts replaces the team's cost constants; drivers call it after
// every list rebuild because the per-link cost depends on the list's
// measured locality.
func (tm *Team) SetCosts(c Costs) {
	tm.Costs = c
	tm.bar.cost = c.Barrier
}

// SetClock forces the team clock; drivers reset it between warm-up and
// measured iterations.
func (tm *Team) SetClock(t float64) { tm.clock = t }

// Compute advances the team clock by dt seconds of serial (master
// thread) work outside any region.
func (tm *Team) Compute(dt float64) {
	if dt > 0 {
		tm.clock += dt
	}
}

// Close releases the team's parked worker goroutines. The team must
// not be inside a region. Running a region on a closed team panics;
// Close is idempotent.
func (tm *Team) Close() {
	tm.runMu.Lock()
	tm.closed = true
	tm.runC.Broadcast()
	tm.runMu.Unlock()
}

// Region runs body concurrently on T threads. Each thread starts at
// the team clock; at the join the team clock becomes the max thread
// clock plus the fork/join overhead, and thread counters merge into
// the team's. The closure form allocates (the closure itself); hot
// paths use RunRegion with a reused RegionBody.
func (tm *Team) Region(body func(th *Thread)) { tm.RunRegion(funcBody(body)) }

// RunRegion is the allocation-free core of Region: it dispatches body
// to the persistent workers (master runs thread 0 inline) and joins.
// If any thread panicked, the region panics on the master after all
// threads have stopped, and the team remains usable: the next region
// resets the barrier and the per-particle lock owners are re-zeroed by
// the updaters' Prepare.
func (tm *Team) RunRegion(body RegionBody) {
	tm.StartRegion(body)
	tm.FinishRegion(tm.clock)
}

// StartRegion dispatches body to the worker threads (1..T-1) but does
// NOT run the master's share: the caller returns immediately to do
// other work — draining a halo exchange while the workers run the
// core-link part of the force loop — and must call FinishRegion to run
// thread 0's share and join. Between the two calls the master must not
// enter another region.
func (tm *Team) StartRegion(body RegionBody) {
	start := tm.clock
	tm.bar.reset()
	for _, th := range tm.threads {
		th.clock = start
		th.TC = trace.Counters{}
	}
	for i := range tm.panics {
		tm.panics[i] = nil
	}
	if tm.T > 1 {
		tm.runMu.Lock()
		if tm.closed {
			tm.runMu.Unlock()
			panic("shm: parallel region on closed team")
		}
		if !tm.started {
			tm.started = true
			for t := 1; t < tm.T; t++ {
				go tm.worker(tm.threads[t])
			}
		}
		tm.body = body
		tm.running = tm.T - 1
		tm.gen++
		tm.runC.Broadcast()
		tm.runMu.Unlock()
	}
	tm.pendingBody = body
}

// FinishRegion completes a region begun with StartRegion: the master
// runs thread 0's share starting no earlier than masterAt on the
// virtual timeline (the communication clock after an overlapped
// drain — the master CPU was busy with the exchange until then), waits
// for the workers, merges clocks and counters, and re-raises any
// thread panic. RunRegion passes the region start, making the pair
// equivalent to the former inline form.
func (tm *Team) FinishRegion(masterAt float64) {
	body := tm.pendingBody
	if body == nil {
		panic("shm: FinishRegion without StartRegion")
	}
	tm.pendingBody = nil
	start := tm.threads[0].clock
	if masterAt > start {
		tm.threads[0].clock = masterAt
	}
	tm.runBody(body, tm.threads[0])
	if tm.T > 1 {
		tm.runMu.Lock()
		for tm.running > 0 {
			tm.doneC.Wait()
		}
		tm.body = nil
		tm.runMu.Unlock()
	}
	// Typed faults (watchdog timeouts, abandoned gates) travel
	// unchanged — and outrank untyped sibling casualties, whichever
	// thread raised them — so the mp layer can classify the root
	// cause; anything else is a bug and keeps the legacy wrapping.
	for _, e := range tm.panics {
		if fe := fault.From(e); fe != nil {
			panic(fe)
		}
	}
	for t, e := range tm.panics {
		if e != nil {
			panic(fmt.Sprintf("shm: thread %d panicked: %v", t, e))
		}
	}
	maxClock := start
	for _, th := range tm.threads {
		if th.clock > maxClock {
			maxClock = th.clock
		}
		tm.TC.Add(&th.TC)
	}
	tm.clock = maxClock + tm.Costs.ForkJoin
	tm.TC.ParallelRegions++
}

// runBody executes one thread's share of a region, converting a panic
// into a recorded panic plus a barrier abort so sibling threads cannot
// deadlock waiting for the dead thread.
func (tm *Team) runBody(body RegionBody, th *Thread) {
	defer func() {
		if e := recover(); e != nil {
			tm.panics[th.ID] = e
			tm.bar.abort()
		}
	}()
	body.RunThread(th)
}

// worker is the parked loop of threads 1..T-1.
func (tm *Team) worker(th *Thread) {
	seen := 0
	for {
		tm.runMu.Lock()
		for tm.gen == seen && !tm.closed {
			tm.runC.Wait()
		}
		if tm.gen == seen { // closed with no new region
			tm.runMu.Unlock()
			return
		}
		seen = tm.gen
		body := tm.body
		tm.runMu.Unlock()
		tm.runBody(body, th)
		tm.runMu.Lock()
		tm.running--
		if tm.running == 0 {
			tm.doneC.Broadcast()
		}
		tm.runMu.Unlock()
	}
}

// chunk returns the static-schedule bounds of thread t over n items:
// a simple block distribution of iterations amongst threads, the
// paper's schedule for every loop.
func chunk(n, T, t int) (lo, hi int) {
	lo = t * n / T
	hi = (t + 1) * n / T
	return lo, hi
}

// ParallelFor runs body(th, lo, hi) on each thread's static chunk of
// [0, n).
func (tm *Team) ParallelFor(n int, body func(th *Thread, lo, hi int)) {
	tm.Region(func(th *Thread) {
		lo, hi := chunk(n, tm.T, th.ID)
		body(th, lo, hi)
	})
}

// Critical runs body under the team's mutual-exclusion lock and
// charges the entry cost to the calling thread.
func (tm *Team) Critical(th *Thread, body func()) {
	tm.mu.Lock()
	body()
	tm.mu.Unlock()
	th.Compute(tm.Costs.Critical)
	th.TC.CriticalEnters++
}
