// Package core contains the paper's contribution: one DEM simulation
// driven through four execution modes — serial, shared-memory
// (OpenMP-style thread team), message-passing (block-cyclic domain
// decomposition over the mp runtime) and hybrid (both at once, threads
// inside each rank). A single set of kernels backs all four, the Go
// equivalent of the paper's "single set of source files ... compiled
// to produce efficient serial, OpenMP, MPI and hybrid codes".
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"hybriddem/internal/decomp"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/machine"
	"hybriddem/internal/mp"
	"hybriddem/internal/shm"
	"hybriddem/internal/trace"
)

// Mode selects the parallelisation model.
type Mode int

const (
	Serial Mode = iota
	OpenMP
	MPI
	Hybrid
	// MPIsm is the MPI-3 shared-memory hybrid (MPI+MPI_sm): one rank per
	// CPU like MPI, but ranks sharing an SMP node serve each other's
	// halo refresh through fenced shared-window loads instead of
	// messages; only inter-node legs travel as messages.
	MPIsm
)

// modeNames is the single source of truth tying Mode constants to their
// command-line names: String(), ModeByName and ModeNames all derive
// from it, so adding a mode here is the only step needed to plumb it
// through every front end's -mode flag.
var modeNames = [...]struct {
	mode Mode
	name string
}{
	{Serial, "serial"},
	{OpenMP, "openmp"},
	{MPI, "mpi"},
	{Hybrid, "hybrid"},
	{MPIsm, "mpism"},
}

// Modes lists every declared execution mode in declaration order.
func Modes() []Mode {
	ms := make([]Mode, len(modeNames))
	for i, e := range modeNames {
		ms[i] = e.mode
	}
	return ms
}

// ModeNames returns the command-line names of all modes, in declaration
// order — the canonical content of a -mode flag's help text.
func ModeNames() []string {
	ns := make([]string, len(modeNames))
	for i, e := range modeNames {
		ns[i] = e.name
	}
	return ns
}

// ModeByName resolves a command-line mode name (case-insensitive). The
// error lists the valid names.
func ModeByName(name string) (Mode, error) {
	for _, e := range modeNames {
		if strings.EqualFold(name, e.name) {
			return e.mode, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (valid: %s)", name, strings.Join(ModeNames(), " | "))
}

func (m Mode) String() string {
	for _, e := range modeNames {
		if e.mode == m {
			return e.name
		}
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Distributed reports whether the mode runs on message-passing ranks.
func (m Mode) Distributed() bool { return m == MPI || m == Hybrid || m == MPIsm }

// ErrCanceled reports that a run stopped early because Config.Stop
// asked it to. The run is not lost: the Result returned alongside the
// error is valid up to the step boundary the cancellation landed on —
// Iters holds the measured iterations actually completed, and with
// CollectState set Pos, Vel and Arrangement hold the state at that
// boundary, exactly what checkpoint.FromResult needs to make the
// cancellation resumable.
// Test with errors.Is(err, ErrCanceled).
var ErrCanceled = errors.New("core: run canceled")

// Strategy selects the dynamic load-balancing algorithm of the
// distributed modes. It aliases the decomp type so the name table
// (StrategyByName, StrategyNames — the -rebalance analogue of the
// ModeByName idiom) lives next to the balancers themselves.
type Strategy = decomp.Strategy

const (
	// RebalanceOff keeps the static block-cyclic deal.
	RebalanceOff = decomp.StrategyOff
	// RebalanceLPT re-deals whole blocks with the deterministic
	// longest-processing-time-first heuristic.
	RebalanceLPT = decomp.StrategyLPT
	// RebalanceORB recuts the box with the orthogonal recursive
	// bisection tree, giving each rank one contiguous brick of blocks.
	RebalanceORB = decomp.StrategyORB
)

// StrategyByName resolves a command-line rebalance-strategy name
// (case-insensitive); the error lists the valid names.
func StrategyByName(name string) (Strategy, error) { return decomp.StrategyByName(name) }

// StrategyNames returns the command-line names of all rebalance
// strategies, in declaration order.
func StrategyNames() []string { return decomp.StrategyNames() }

// Strategies lists every declared rebalance strategy.
func Strategies() []Strategy { return decomp.Strategies() }

// StrategyFlag adapts a Strategy to the flag.Value interface, keeping
// the historical boolean spellings of -rebalance alive (bare flag =
// lpt, =false = off) alongside the strategy names.
type StrategyFlag = decomp.StrategyFlag

// Config describes one simulation run. The zero value is unusable;
// start from Default and override.
type Config struct {
	D    int           // spatial dimensions, 2 or 3 for the paper's benchmarks
	N    int           // number of particles
	L    float64       // box edge
	BC   geom.Boundary // periodic or reflecting walls
	Seed int64

	Spring   force.Spring // inter-particle force; Diameter is rmax
	RCFactor float64      // cutoff rc = RCFactor * rmax (paper: 1.5, 2.0)
	Dt       float64      // time step

	Gravity float64 // acceleration along the last dimension (sand piles)

	// FillHeight, when in (0, 1), compresses the initial positions
	// into the bottom fraction of the box along the last dimension —
	// a settled bed of grains, the clustered workload that motivates
	// the paper's load-balancing comparison. Zero or one fills the
	// whole box uniformly.
	FillHeight float64

	// Init, when non-nil, supplies an explicit initial condition and
	// overrides the random fills. Composite-grain packings and
	// checkpoints enter this way.
	Init *State

	// Timeline, when non-nil, records per-rank phase spans (comm,
	// force, update, rebuild) in virtual time — the profiling the
	// paper's Further Work performs with OMPItrace/Paraver. See
	// cmd/demtrace.
	Timeline *trace.Timeline

	// Probe, when non-nil, receives the complete global state
	// (positions and velocities indexed by particle ID, freshly
	// allocated — the callback may keep the slices) after every
	// measured iteration. In distributed modes the state is gathered
	// onto rank 0 and the probe fires there; the gather traffic is
	// charged to the virtual clocks like any other communication, so
	// probed runs are for correctness work (internal/verify), not for
	// timing.
	Probe func(iter int, pos, vel []geom.Vec)

	// Stop, when non-nil, is polled after every measured step: when it
	// returns true the run stops after that step and returns its partial
	// Result together with ErrCanceled, instead of tearing the process
	// down and losing everything since the last on-disk checkpoint. Every
	// step boundary is a resumable state: a checkpoint of the partial
	// Result (checkpoint.FromResult) records the stores as the engine
	// holds them, and a run opened from it continues bit for bit as the
	// run that never stopped would have (DESIGN §15). In the distributed
	// modes rank 0 polls the hook and the verdict is agreed through a
	// one-element allreduce, so the hook must be cheap (typically an
	// atomic-flag load). Warm-up iterations are not interruptible: a
	// resume skips the warm-up, so a partial one could not be replayed.
	Stop func() bool

	// OnStep, when non-nil, receives the step index and the globally
	// reduced energies after every measured iteration — on rank 0 in
	// the distributed modes, where the values are already allreduced
	// for the energy accounting, so the hook costs no extra traffic
	// (unlike Probe's full-state gather). The service daemon streams
	// these as per-step events to its subscribers. Under Supervise the
	// hook fires exactly once per iteration even across rollbacks.
	OnStep func(iter int, epot, ekin float64)

	// NaivePack is the indexed-datatype ablation: halo data pays an
	// extra user-side pack and unpack per particle per swap, as it
	// would without the paper's cached MPI indexed datatypes.
	NaivePack bool

	// SelfMessage is the fast-path ablation: same-rank halo legs are
	// charged as messages through the runtime instead of direct
	// copies ("the communications routines are actually only called
	// when P > 1").
	SelfMessage bool

	Reorder bool // cell-order particle reordering at every list rebuild

	Mode          Mode
	P             int        // MPI ranks (MPI/Hybrid)
	T             int        // threads (OpenMP/Hybrid)
	BlocksPerProc int        // B/P granularity (MPI/Hybrid)
	Method        shm.Method // force-update protection (OpenMP/Hybrid)
	Fused         bool       // single fused region over all blocks (Section 11 further work)

	// Rebalance selects dynamic block→rank load balancing in the
	// distributed modes: at every list rebuild the ranks exchange a
	// per-block cost vector (links + core particles, EWMA-smoothed), a
	// deterministic repartitioner computes a new ownership map, and
	// whole blocks migrate to their new ranks (hysteresis keeps
	// near-balanced maps stable). RebalanceLPT re-deals whole blocks by
	// cost; RebalanceORB recuts the box with an orthogonal recursive
	// bisection tree so each rank owns one contiguous brick of blocks.
	// Trajectories are bit-identical to the static block-cyclic layout
	// under either strategy — ownership is bookkeeping, only the
	// modelled per-rank load changes. Ignored by the serial and
	// pure-OpenMP modes. RebalanceOff (the zero value) by default.
	Rebalance Strategy

	// RebalanceHyst overrides the repartition hysteresis: a candidate
	// map is adopted only when the current map's predicted peak load
	// exceeds the candidate's by more than this relative margin.
	// Tighter values track a moving load more closely at the price of
	// more migration traffic; 0 keeps decomp.DefaultRebalanceHyst.
	RebalanceHyst float64

	// InitTree, when non-nil with RebalanceORB, seeds the run's
	// decomposition with a previously adopted ORB tree (restored from a
	// checkpoint), so a resumed run starts from the ownership it was
	// snapshotted with instead of re-adapting from the cyclic deal. It
	// is ignored when its shape does not match the run's layout (e.g.
	// after a degrade-and-recover changed the rank count).
	InitTree *decomp.ORBTree

	// Overlap enables the split-phase halo exchange in the distributed
	// modes: the step posts the exchange, accumulates core-link forces
	// while the messages are in flight, then completes the exchange and
	// accumulates halo-link forces; the end-of-step energy allreduce is
	// likewise overlapped with the rebuild vote. Trajectories are
	// bit-identical to the synchronous exchange — only the modelled
	// timeline changes, charging max(comm, core compute) instead of
	// their sum. Ignored by the serial and pure-OpenMP modes.
	Overlap bool

	// Platform supplies the virtual cost model; nil runs with free
	// (zero-cost) modelling, which correctness tests use.
	Platform *machine.Platform

	// ModelN, when nonzero, tells the cost model to scale the
	// measured locality metric as though the run had ModelN particles
	// instead of N. The experiment harness runs scaled-down systems
	// while modelling the paper's 10^6-particle cache behaviour; the
	// metric grows roughly linearly with particle count for both
	// random and cell-ordered layouts, so the scaled window lands on
	// the correct side of each platform's cache size.
	ModelN int

	// InitVel draws initial velocity components uniformly from
	// [-InitVel, InitVel]; zero leaves particles at rest (with a
	// uniform random overlap-rich packing the springs start the
	// motion immediately).
	InitVel float64

	Warmup int // iterations run before measurement starts

	// CollectState gathers final positions and velocities (indexed by
	// particle ID) into the Result; used by equivalence tests and the
	// examples, off for benchmarks.
	CollectState bool

	// Faults installs a chaos schedule on the distributed modes'
	// message runtime: an injected rank kill at a chosen step, plus
	// probabilistic corruption, duplication and delay of point-to-point
	// payloads. Detected faults surface from Run as *fault.Error;
	// Supervise recovers from them. Ignored by the serial and
	// pure-OpenMP modes. nil injects nothing.
	Faults *mp.FaultPlan

	// Watchdog bounds every blocking receive, collective wait and halo
	// gate drain in the distributed modes: an operation blocked longer
	// surfaces as a typed Timeout fault instead of a hang. It also
	// makes an injected kill silent (peers discover the death only
	// through their deadlines, as with a real node loss). 0 disables
	// the watchdog; faults then fail fast by aborting all ranks.
	Watchdog time.Duration

	// NoIntegrity disables the per-message sequence numbers and
	// checksums on the distributed modes' point-to-point traffic.
	// Integrity is on by default; this exists for the X9 overhead
	// ablation and cannot be combined with corruption/duplication
	// injection.
	NoIntegrity bool
}

// Default returns the paper's benchmark configuration scaled to n
// particles: identical elastic spheres of diameter 0.05 at the paper's
// density (L chosen so n/L^D matches 10^6 particles in 50^2 or 5^3).
func Default(d, n int) Config {
	if d < 1 || d > geom.MaxD {
		panic(fmt.Sprintf("core: dimension %d", d))
	}
	var refN float64 = 1e6
	var refL float64
	switch d {
	case 2:
		refL = 50
	case 3:
		refL = 5
	default:
		refL = 2500 // keep 1-D linear density consistent
	}
	// L so that n / L^d matches the paper's density.
	l := refL
	if n != int(refN) {
		l = refL * math.Pow(float64(n)/refN, 1.0/float64(d))
	}
	return Config{
		D:        d,
		N:        n,
		L:        l,
		BC:       geom.Periodic,
		Seed:     1,
		Spring:   force.Spring{Diameter: 0.05, K: 500, Damp: 0},
		RCFactor: 1.5,
		Dt:       5e-5,
		Reorder:  true,
		Overlap:  true,
		Mode:     Serial,
		P:        1,
		T:        1,
		Method:   shm.SelectedAtomic,

		BlocksPerProc: 1,
	}
}

// Validate reports configuration errors early.
func (c *Config) Validate() error {
	if c.D < 1 || c.D > geom.MaxD {
		return fmt.Errorf("core: D=%d out of range", c.D)
	}
	if c.N < 1 {
		return fmt.Errorf("core: N=%d", c.N)
	}
	if c.L <= 0 {
		return fmt.Errorf("core: L=%g", c.L)
	}
	if c.Spring.Diameter <= 0 || c.Spring.K < 0 || c.Spring.Damp < 0 {
		return fmt.Errorf("core: bad spring %+v", c.Spring)
	}
	if c.RCFactor <= 1 {
		return fmt.Errorf("core: RCFactor=%g must exceed 1 so the list outlives a step", c.RCFactor)
	}
	if c.Dt <= 0 {
		return fmt.Errorf("core: Dt=%g", c.Dt)
	}
	if c.P < 1 || c.T < 1 || c.BlocksPerProc < 1 {
		return fmt.Errorf("core: P=%d T=%d BlocksPerProc=%d", c.P, c.T, c.BlocksPerProc)
	}
	if st := c.Init; st != nil {
		if len(st.Pos) != c.N || len(st.Vel) != c.N || st.Ref != nil && len(st.Ref) != c.N {
			return fmt.Errorf("core: Init has %d positions, %d velocities and %d references for N=%d",
				len(st.Pos), len(st.Vel), len(st.Ref), c.N)
		}
		if err := CheckOrder(st.Order, c.N); err != nil {
			return fmt.Errorf("core: Init order: %w", err)
		}
	}
	if bt := c.Spring.Bonds; bt != nil && bt.MaxRest() >= c.RC() {
		return fmt.Errorf("core: longest bond rest length %g reaches the cutoff %g; bonded pairs would leave the link list",
			bt.MaxRest(), c.RC())
	}
	switch c.Mode {
	case Serial:
		if c.P != 1 || c.T != 1 {
			return fmt.Errorf("core: serial mode with P=%d T=%d", c.P, c.T)
		}
	case OpenMP:
		if c.P != 1 {
			return fmt.Errorf("core: openmp mode with P=%d", c.P)
		}
	case MPI, MPIsm:
		if c.T != 1 {
			return fmt.Errorf("core: %v mode with T=%d", c.Mode, c.T)
		}
	case Hybrid:
		// Any P, T combination; the fused loop runs one updater over
		// all of a rank's blocks, which an array reduction cannot.
		if c.Fused && c.Method.ArrayReduction() {
			var valid []string
			for _, m := range shm.Methods {
				if !m.ArrayReduction() {
					valid = append(valid, m.String())
				}
			}
			return fmt.Errorf("core: fused hybrid loop with method %v, which reduces one block's force array (valid with fused: %s)",
				c.Method, strings.Join(valid, " | "))
		}
	default:
		return fmt.Errorf("core: unrecognised mode %v (valid: %s)", c.Mode, strings.Join(ModeNames(), " | "))
	}
	if !c.Rebalance.Valid() {
		return fmt.Errorf("core: unrecognised rebalance strategy %d (valid: %s)",
			int(c.Rebalance), strings.Join(StrategyNames(), " | "))
	}
	return nil
}

// needsHaloVel reports whether halo traffic must carry velocities:
// the force law reads relative velocities whenever any damping is
// active.
func (c *Config) needsHaloVel() bool {
	if c.Spring.Damp > 0 {
		return true
	}
	return c.Spring.Bonds != nil && c.Spring.Bonds.Damp > 0
}

// modelDist rescales a measured locality metric to the modelled
// particle count.
func (c *Config) modelDist(meanDist float64) float64 {
	if c.ModelN <= 0 || c.ModelN == c.N {
		return meanDist
	}
	return meanDist * float64(c.ModelN) / float64(c.N)
}

// workScale returns the factor by which per-work-item costs are
// multiplied to model ModelN particles: work counts (links, updates,
// positions) grow linearly with the particle number.
func (c *Config) workScale() float64 {
	if c.ModelN <= 0 || c.ModelN == c.N {
		return 1
	}
	return float64(c.ModelN) / float64(c.N)
}

// surfScale returns the factor applied to exchange volumes (halo and
// migration traffic), which grow with the block surfaces:
// (ModelN/N)^((D-1)/D).
func (c *Config) surfScale() float64 {
	ws := c.workScale()
	if ws == 1 {
		return 1
	}
	return math.Pow(ws, float64(c.D-1)/float64(c.D))
}

// atomicScale returns the factor applied to protected-update costs:
// full-atomic locking locks every update (bulk scaling) while the
// selected-atomic conflict set lives on thread-chunk boundaries
// (surface scaling).
func (c *Config) atomicScale() float64 {
	if c.Method == shm.SelectedAtomic {
		return c.surfScale()
	}
	return c.workScale()
}

// RC returns the cutoff distance.
func (c *Config) RC() float64 { return c.RCFactor * c.Spring.Diameter }

// Skin returns the displacement bound after which the link list may
// miss an interacting pair: half of (rc - rmax).
func (c *Config) Skin() float64 { return (c.RC() - c.Spring.RMax()) / 2 }

// viewSlack returns how far a particle may move from the positions a
// list was built on before the contact-range view pruned there may miss
// a contact: a quarter of the skin. A view keeps the links closer than
// Diameter + 2·viewSlack, so while every particle has moved less than
// viewSlack a link it left out is still apart. The fraction is
// measured (EXPERIMENTS.md, "Host clock, pruned contact list"): at
// Skin/8, /4 and /2 the view holds 0.36, 0.42 and 0.58 of uniform3d's
// list and bed3d walks it on 2, 4 and 8 of the ~15 steps between
// rebuilds; /4 had the best median serial step on both beds. It is 0
// for a bonded spring, whose bonds act beyond contact: such a run
// prunes no view and walks the skin list.
func (c *Config) viewSlack() float64 {
	if c.Spring.Bonds != nil {
		return 0
	}
	return c.Skin() / 4
}

// viewCut2 returns the squared distance a view is pruned at,
// 0 for no view. The 2⁻²⁰·viewSlack on top of Diameter + 2·viewSlack
// is the rounding margin: it exceeds by orders of magnitude what
// rounding can take off a displacement, a distance or a halo copy's
// shifted coordinate (DESIGN.md §20).
func (c *Config) viewCut2() float64 {
	s := c.viewSlack()
	if s == 0 {
		return 0
	}
	cut := c.Spring.Diameter + 2*s + s/(1<<20)
	return cut * cut
}

// viewValid reports whether a view pruned at the last list build may
// still stand in for the skin list, given the largest squared
// displacement since: false for a NaN, and always without a view.
func (c *Config) viewValid(moved float64) bool {
	s := c.viewSlack()
	return moved < s*s
}

// Box returns the global simulation box.
func (c *Config) Box() geom.Box { return geom.NewBox(c.D, c.L, c.BC) }

// State is an explicit initial condition: entry i is particle Order[i]
// (i when Order is nil) at Pos[i] with velocity Vel[i], its list built
// at Ref[i] (Pos[i] when Ref is nil). The run places the particles in
// that order at Ref, rebuilds as ever, then moves them to Pos; from a
// Result.Arrangement that reproduces the run that wrote it, bit for bit.
type State struct {
	Pos   []geom.Vec
	Vel   []geom.Vec
	Ref   []geom.Vec // optional
	Order []int32    // optional: a permutation of [0, N)
}

// CheckOrder reports an error unless order is nil (the identity) or
// holds every particle id in [0, n) once.
func CheckOrder(order []int32, n int) error {
	if order != nil && len(order) != n {
		return fmt.Errorf("%d ids for N=%d", len(order), n)
	}
	seen := make([]bool, len(order))
	for i, id := range order {
		if id < 0 || int(id) >= n || seen[id] {
			return fmt.Errorf("slot %d holds id %d", i, id)
		}
		seen[id] = true
	}
	return nil
}

// place hands put every particle of the state in its order: its
// reference position, velocity and id.
func (st *State) place(put func(ref, vel geom.Vec, id int32)) {
	for i, ref := range st.Pos {
		if st.Ref != nil {
			ref = st.Ref[i]
		}
		put(ref, st.Vel[i], st.id(i))
	}
}

// id is the particle entry i describes.
func (st *State) id(i int) int32 {
	if st.Order == nil {
		return int32(i)
	}
	return st.Order[i]
}

// moved returns the state's positions by particle id when they differ
// from where place put the particles, else nil (as for no state).
func (st *State) moved() []geom.Vec {
	if st == nil || st.Ref == nil {
		return nil
	}
	pos := make([]geom.Vec, len(st.Pos))
	for i, x := range st.Pos {
		pos[st.id(i)] = x
	}
	return pos
}

// Arrangement is a run's state as the engine holds it after Iters
// measured iterations: store slot i — block after block in block-id
// order in the distributed modes — holds particle Order[i] at Pos[·][i]
// with velocity Vel[·][i], its list built at Ref[·][i]. Positions are
// in the engine's frame, where a distributed mode folds a coordinate
// out of a periodic box only at its next rebuild. It is the session's
// storage, which its next Advance overwrites and restamps.
type Arrangement struct {
	Iters         int
	Order         []int32
	Pos, Vel, Ref geom.Coords
}

// resize gives the arrangement room for n particles in d dimensions,
// keeping its storage when it has room already.
func (a *Arrangement) resize(d, n int) {
	a.Order = slices.Grow(a.Order[:0], n)[:n]
	for k := 0; k < d; k++ {
		for _, c := range [...]*geom.Coords{&a.Pos, &a.Vel, &a.Ref} {
			c[k] = slices.Grow(c[k][:0], n)[:n]
		}
	}
}

// State returns the arrangement of a d-dimensional run as an initial
// condition: a run opened from it continues on the bits of the run that
// gathered it. Without references (Ref[0] nil) the positions stand in.
func (a *Arrangement) State(d int) *State {
	n := len(a.Pos[0])
	st := &State{Pos: a.Pos.Vecs(n, d), Vel: a.Vel.Vecs(n, d), Order: slices.Clone(a.Order)}
	if a.Ref[0] != nil {
		st.Ref = a.Ref.Vecs(n, d)
	}
	return st
}

// byID returns the state indexed by particle ID, folding a coordinate
// into box only when it lies outside [0, L) — geom.Box.Fold's identity
// inside. One walk over the slots: the ids are hit in no order, and a
// walk per component would miss the cache on each of them D times.
func (a *Arrangement) byID(box geom.Box) (pos, vel []geom.Vec) {
	pos, vel = make([]geom.Vec, len(a.Order)), make([]geom.Vec, len(a.Order))
	for i, id := range a.Order {
		var x, w geom.Vec
		for k := 0; k < box.D; k++ {
			c := a.Pos[k][i]
			if c < 0 || c >= box.Len[k] { // Fold's own test: Fold does not inline
				c, _ = box.Fold(c, k)
			}
			x[k], w[k] = c, a.Vel[k][i]
		}
		pos[id], vel[id] = x, w
	}
	return pos, vel
}

// Result reports one run's measurements.
type Result struct {
	Mode  Mode
	Iters int

	// PerIter is the modelled time per measured iteration on the
	// virtual platform: the maximum over ranks of per-iteration
	// virtual time for the force + update (+ halo swap + energy)
	// phases, excluding link generation, exactly as the paper times.
	PerIter float64

	// TotalTime is the modelled wall time per measured iteration: the
	// slowest rank's full virtual clock over the measured window,
	// divided by the iteration count. Unlike PerIter it includes
	// everything between the timed phases — link rebuilds, particle
	// migration, and dynamic repartition (the cost allreduce, owner
	// updates, and block transfers) — so it is the number that exposes
	// a load balancer's own overhead. Shared-memory runs include
	// rebuild time only (they have no migration or repartition).
	TotalTime float64

	// Wall is the real host time of the measured loop alone, in every
	// mode: the stopwatch starts after placement, the first list build
	// and the warm-up (in the distributed modes after the barrier that
	// follows them, on rank 0) and stops after the last measured step,
	// before results are gathered and ranks or teams torn down. Probe,
	// OnStep and Stop hooks run inside the loop and are included; a
	// session sums its Advances.
	Wall time.Duration

	// Phase breakdown of PerIter (rank-0 attribution). CommTime is the
	// halo exchange alone; CollTime is the end-of-step energy/vote
	// collective, kept separate because a rank blocked there is waiting
	// out the slowest rank — on imbalanced systems it is the imbalance
	// itself, not message traffic.
	ForceTime, UpdateTime, CommTime, CollTime float64

	Epot, Ekin float64 // final energies
	NLinks     int64   // links at last rebuild (global)
	Rebuilds   int     // list reconstructions during measurement
	ViewSteps  int     // measured steps whose force pass walked the contact-range view, not the skin list

	MeanLinkDist   float64 // locality metric of the final list
	AtomicFraction float64 // protected fraction under selected-atomic

	// Imbalance is the per-rank load imbalance ratio of the measured
	// window: max over ranks of (force + update time) divided by the
	// mean over ranks. 1 is perfect balance; only distributed modes set
	// it (serial and pure-OpenMP report 0).
	Imbalance float64

	TC trace.Counters // aggregated counters (all ranks and threads)

	// Tree is the ORB decomposition adopted by the end of the run
	// (rank 0's private copy); nil unless the run used RebalanceORB.
	// Checkpoints embed it so a resumed run keeps its decomposition.
	Tree *decomp.ORBTree

	// Final state indexed by particle ID, positions folded into the
	// box; nil unless CollectState.
	Pos, Vel []geom.Vec

	// Arrangement is the same state as the engine holds it, which a
	// checkpoint records so that a resume continues on these bits; nil
	// unless CollectState. It is a Sim's storage (see Sim.Result).
	Arrangement *Arrangement
}

// Efficiency returns the parallel efficiency of this result against a
// reference: (ref.PerIter / PerIter) / scale. Callers choose scale =
// P/P0 for speedup-style plots or 1 for granularity plots.
func (r *Result) Efficiency(ref *Result, scale float64) float64 {
	if r.PerIter == 0 || scale == 0 {
		return 0
	}
	return ref.PerIter / r.PerIter / scale
}
