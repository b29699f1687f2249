// Package hybriddem is a Go reproduction of D. S. Henty's SC 2000
// study "Performance of Hybrid Message-Passing and Shared-Memory
// Parallelism for Discrete Element Modeling".
//
// It provides a complete discrete element model (identical elastic
// spheres evolved with a link-cell neighbour list) parallelised four
// ways over substrates built from scratch in this module:
//
//   - Serial: one store, one cell grid.
//   - OpenMP: a fork-join thread-team runtime (internal/shm) with the
//     paper's five strategies for protecting concurrent force updates
//     (atomic, selected atomic, critical/stripe/transpose reductions).
//   - MPI: a message-passing runtime (internal/mp) driving a
//     block-cyclic domain decomposition with halo exchange and
//     particle migration (internal/decomp).
//   - Hybrid: both at once — MPI between nodes, threads within.
//
// Runs execute with real concurrency (goroutines) and simultaneously
// carry virtual clocks priced by calibrated models of the paper's
// three platforms — a Cray T3E-900, a Sun HPC 3500 and a Compaq ES40
// cluster (internal/machine) — so the paper's tables and figures can
// be regenerated on commodity hardware (internal/bench, cmd/dembench).
//
// Quick start:
//
//	cfg := hybriddem.Default(3, 10_000) // D=3, 10k particles
//	cfg.Mode = hybriddem.Hybrid
//	cfg.P, cfg.T = 4, 4
//	cfg.Platform = hybriddem.CompaqES40()
//	res, err := hybriddem.Run(cfg, 20)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package hybriddem

import (
	"fmt"

	"hybriddem/internal/bench"
	"hybriddem/internal/cell"
	"hybriddem/internal/checkpoint"
	"hybriddem/internal/core"
	"hybriddem/internal/decomp"
	"hybriddem/internal/export"
	"hybriddem/internal/fault"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/grain"
	"hybriddem/internal/machine"
	"hybriddem/internal/measure"
	"hybriddem/internal/mp"
	"hybriddem/internal/particle"
	"hybriddem/internal/shm"
	"hybriddem/internal/trace"
	"hybriddem/internal/verify"
)

// Config describes one simulation run; start from Default and
// override. See the field documentation in internal/core.
type Config = core.Config

// Result reports a run's modelled timings, energies and counters.
type Result = core.Result

// Mode selects the parallelisation model.
type Mode = core.Mode

// Execution modes.
const (
	Serial = core.Serial
	OpenMP = core.OpenMP
	MPI    = core.MPI
	Hybrid = core.Hybrid
	MPIsm  = core.MPIsm // MPI+MPI_sm: shared-memory windows within each node
)

// ModeByName resolves a command-line mode name (case-insensitive); the
// error lists the valid names.
func ModeByName(name string) (Mode, error) { return core.ModeByName(name) }

// ModeNames returns the command-line names of all execution modes in
// declaration order.
func ModeNames() []string { return core.ModeNames() }

// Strategy selects the dynamic load-balancing algorithm of the
// distributed modes (Config.Rebalance).
type Strategy = core.Strategy

// Rebalance strategies.
const (
	RebalanceOff = core.RebalanceOff // static block-cyclic deal
	RebalanceLPT = core.RebalanceLPT // longest-processing-time block re-deal
	RebalanceORB = core.RebalanceORB // orthogonal recursive bisection (contiguous bricks)
)

// StrategyByName resolves a command-line rebalance-strategy name
// (case-insensitive); the error lists the valid names.
func StrategyByName(name string) (Strategy, error) { return core.StrategyByName(name) }

// StrategyNames returns the command-line names of all rebalance
// strategies in declaration order.
func StrategyNames() []string { return core.StrategyNames() }

// StrategyFlag adapts a Strategy to the flag.Value interface: a bare
// -rebalance means lpt (the historical boolean behaviour), =false
// means off, and =off|lpt|orb names a strategy directly.
type StrategyFlag = core.StrategyFlag

// ORBTree is the adaptive orthogonal-recursive-bisection decomposition
// a RebalanceORB run adopts; checkpoints carry it so a resumed run
// keeps its cut planes (Config.InitTree, Result.Tree).
type ORBTree = decomp.ORBTree

// Method selects the shared-memory force-update protection strategy.
type Method = shm.Method

// Force-update strategies (Section 7 of the paper).
const (
	Atomic            = shm.Atomic
	SelectedAtomic    = shm.SelectedAtomic
	CriticalReduction = shm.CriticalReduction
	Stripe            = shm.Stripe
	Transpose         = shm.Transpose
)

// MethodByName resolves a command-line method name (case-insensitive);
// the error lists the valid names, which MethodNames returns.
func MethodByName(name string) (Method, error) { return shm.MethodByName(name) }
func MethodNames() []string                    { return shm.MethodNames() }

// Boundary selects the global boundary condition.
type Boundary = geom.Boundary

// Boundary conditions.
const (
	Periodic   = geom.Periodic
	Reflecting = geom.Reflecting
)

// Platform is a virtual machine cost model.
type Platform = machine.Platform

// SunHPC returns the 8-CPU Sun HPC 3500 model (software locks, one
// big SMP).
func SunHPC() *Platform { return machine.SunHPC() }

// T3E returns the Cray T3E-900 model (single-CPU nodes, 8-byte
// integers, fast torus network).
func T3E() *Platform { return machine.T3E() }

// CompaqES40 returns the 5-box, 4-CPU-per-box ES40 cluster model
// (hardware atomics, memory-channel interconnect).
func CompaqES40() *Platform { return machine.CompaqES40() }

// Platforms returns the three benchmark machines in the paper's
// order.
func Platforms() []*Platform { return machine.Platforms() }

// PlatformByName resolves "Sun", "T3E" or "CPQ".
func PlatformByName(name string) (*Platform, error) { return machine.ByName(name) }

// Default returns the paper's benchmark configuration scaled to n
// particles in d dimensions (d in {2, 3} for the paper's runs).
func Default(d, n int) Config { return core.Default(d, n) }

// Run executes a simulation for the configured warmup plus iters
// measured iterations and returns its measurements.
func Run(cfg Config, iters int) (*Result, error) { return core.Run(cfg, iters) }

// Sim is a live session: Open, Advance in pieces, Result — a resumable
// state under CollectState — in between, Close; ranks, teams, grids and
// buffers stay up. A Result's Arrangement is the session's storage:
// checkpoint it before the next Advance, which overwrites it.
// Sim.AdvanceTo is the checkpointing loop of demrun and demd.
type Sim = core.Sim

// Open sets a simulation up and returns the live session.
func Open(cfg Config) (*Sim, error) { return core.Open(cfg) }

// ErrCanceled is the error Run and Supervise return when Config.Stop
// asked the run to stop at a step boundary. It arrives alongside a
// valid partial Result (Iters holds the completed count), so the
// interrupted state can be checkpointed and resumed.
var ErrCanceled = core.ErrCanceled

// State is an explicit initial condition for Config.Init: positions
// and velocities indexed by particle ID, or a checkpoint's arrangement.
type State = core.State

// BondTable records the permanent dissipative-spring bonds that glue
// basic particles into composite grains (Config.Spring.Bonds).
type BondTable = force.BondTable

// NewBondTable creates a bond table for n particles with at most
// maxBonds bonds each and the given spring constants.
func NewBondTable(n, maxBonds int, k, damp float64) *BondTable {
	return force.NewBondTable(n, maxBonds, k, damp)
}

// GrainShape selects a composite-grain geometry.
type GrainShape = grain.Shape

// Grain shapes.
const (
	Dimer  = grain.Dimer
	Trimer = grain.Trimer
	Chain  = grain.Chain
	Tetra  = grain.Tetra
)

// GrainConfig describes a composite-grain packing.
type GrainConfig = grain.Config

// BuildGrains places composite grains (the paper's "complex particles
// with simple forces") and returns the initial state plus the bond
// table; wire them into a Config via Init and Spring.Bonds:
//
//	gs, bonds, err := hybriddem.BuildGrains(gc)
//	cfg.Init = &hybriddem.State{Pos: gs.Pos, Vel: gs.Vel}
//	cfg.Spring.Bonds = bonds
func BuildGrains(gc GrainConfig) (*State, *BondTable, error) {
	gs, bonds, err := grain.Build(gc)
	if err != nil {
		return nil, nil, err
	}
	return &State{Pos: gs.Pos, Vel: gs.Vel}, bonds, nil
}

// Timeline records per-rank phase spans in virtual time when wired
// into Config.Timeline; see cmd/demtrace for rendering.
type Timeline = trace.Timeline

// Snapshot is a saved simulation state (the stores as the run held
// them, geometry) for checkpoint/restart; see the checkpoint functions.
type Snapshot = checkpoint.Snapshot

// SaveCheckpoint captures a finished run (made with
// Config.CollectState) into a snapshot file. A Result of a Sim must be
// saved before the Sim advances again; after, it is refused.
func SaveCheckpoint(path string, cfg *Config, res *Result, itersDone int) error {
	snap, err := checkpoint.FromResult(cfg, res, itersDone)
	if err != nil {
		return err
	}
	return checkpoint.SaveFile(path, snap)
}

// LoadCheckpoint reads a snapshot file and installs it as cfg's
// initial condition after validating the geometry.
func LoadCheckpoint(path string, cfg *Config) (*Snapshot, error) {
	snap, err := checkpoint.LoadFile(path)
	if err != nil {
		return nil, err
	}
	if err := snap.Apply(cfg); err != nil {
		return nil, err
	}
	return snap, nil
}

// ExportState writes a run's collected final state (Config with
// CollectState set) to a .vtk, .xyz or .csv file for visualisation.
func ExportState(path string, cfg *Config, res *Result) error {
	if res.Pos == nil {
		return fmt.Errorf("hybriddem: run did not collect state (set Config.CollectState)")
	}
	ps := particle.New(cfg.D, cfg.N)
	for i := 0; i < cfg.N; i++ {
		ps.Append(res.Pos[i], res.Vel[i], int32(i))
	}
	box := cfg.Box()
	return export.SaveFile(path, ps, cfg.N, [3]float64{box.Len[0], box.Len[1], box.Len[2]})
}

// Observables bundles the granular physics measurements of a
// collected final state.
type Observables struct {
	PackingFraction float64   // occupied volume fraction
	Temperature     float64   // kinetic temperature (k_B = m = 1)
	Coordination    float64   // mean touching neighbours per particle
	Pressure        float64   // virial pressure
	RDFRadii        []float64 // radial distribution bin centres
	RDF             []float64 // g(r) per bin
}

// Measure computes the observables of a run's final state (the run
// must have been made with Config.CollectState). The pair quantities
// are evaluated on a freshly built link list at the configured
// cutoff.
func Measure(cfg *Config, res *Result) (*Observables, error) {
	if res.Pos == nil {
		return nil, fmt.Errorf("hybriddem: run did not collect state (set Config.CollectState)")
	}
	ps := particle.New(cfg.D, cfg.N)
	for i := 0; i < cfg.N; i++ {
		ps.Append(res.Pos[i], res.Vel[i], int32(i))
	}
	box := cfg.Box()
	rc := cfg.RC()
	g := cell.NewGrid(cfg.D, geom.Vec{}, box.Len, rc, box.BC == geom.Periodic)
	g.Bin(&ps.Pos, cfg.N, nil)
	list := g.BuildLinks(&ps.Pos, cfg.N, cfg.N, rc*rc, box, nil)

	const rdfBins = 24
	rdf := measure.PairCorrelation(ps, list.Links, cfg.N, box, rc, rdfBins)
	return &Observables{
		PackingFraction: measure.PackingFraction(ps, cfg.N, cfg.Spring.Diameter, box),
		Temperature:     measure.Temperature(ps, cfg.N),
		Coordination:    measure.Coordination(ps, list.Links, cfg.N, cfg.Spring.Diameter, box),
		Pressure:        measure.Pressure(ps, list.Links, cfg.N, cfg.Spring, box),
		RDFRadii:        rdf.BinCenters(),
		RDF:             rdf.Bins,
	}, nil
}

// Conformance is the outcome of a differential verification run: one
// result per execution-mode × strategy × reordering variant, each
// compared step by step against the serial baseline.
type Conformance = verify.Conformance

// Divergence localises the first disagreement between two trajectories
// (step, particle, field, component).
type Divergence = verify.Divergence

// RunConformance pushes cfg through every execution mode, force-update
// strategy and reordering setting and compares whole trajectories
// against the serial baseline over iters steps; tol <= 0 selects the
// default 1e-7. The configuration's Mode/P/T fields are overridden per
// variant and the virtual platform is stripped (correctness runs do
// not model cost).
func RunConformance(cfg Config, iters int, tol float64) (*Conformance, error) {
	return verify.RunConformance(cfg, iters, tol)
}

// ScenarioKind selects a family of generated verification scenarios.
type ScenarioKind = verify.Kind

// Verification scenario families.
const (
	ScenarioUniform        = verify.Uniform
	ScenarioClustered      = verify.Clustered
	ScenarioBondedGrains   = verify.BondedGrains
	ScenarioDegenerateGrid = verify.DegenerateGrid
	ScenarioNearBoundary   = verify.NearBoundary
)

// Scenario builds a deterministic verification initial condition of
// the given family: a ready-to-run Config with an explicit Init state.
func Scenario(k ScenarioKind, d, n int, seed int64) (Config, error) {
	return verify.Scenario(k, d, n, seed)
}

// FaultPlan is a seeded, deterministic fault-injection plan for
// distributed runs: it can kill a rank at a chosen step and corrupt,
// duplicate or delay point-to-point messages (Config.Faults).
type FaultPlan = mp.FaultPlan

// FaultStats counts the injections a plan actually applied.
type FaultStats = mp.FaultStats

// NewFaultPlan returns an empty plan drawing its decisions from seed;
// set the probability fields and ArmKill to arm it.
func NewFaultPlan(seed int64) *FaultPlan { return mp.NewFaultPlan(seed) }

// ParseKill parses "rank@step", FaultPlan.ArmKill's arguments.
func ParseKill(s string) (rank, step int, err error) { return mp.ParseKill(s) }

// FaultError is the typed error every detected fault surfaces as:
// killed ranks, corrupted or out-of-sequence messages, watchdog
// timeouts, abandoned collectives.
type FaultError = fault.Error

// AsFaultError extracts the typed fault from an error chain, or nil
// when the error is not fault-related.
func AsFaultError(err error) *FaultError {
	if err == nil {
		return nil
	}
	return fault.From(err)
}

// FTConfig tunes Supervise's snapshot cadence and retry policy.
type FTConfig = core.FTConfig

// Supervise executes a distributed (MPI or Hybrid) run under fault
// supervision: periodic in-memory snapshots at link-rebuild
// boundaries, and on a detected fault a rollback to the last snapshot
// — after a rank kill, on a degraded layout spreading the dead rank's
// blocks over the P-1 survivors. Recovery is bit-exact with respect to
// an unfaulted run.
func Supervise(cfg Config, iters int, ft FTConfig) (*Result, error) {
	return core.Supervise(cfg, iters, ft)
}

// OpenSupervised is Open under that supervision, in every Advance.
func OpenSupervised(cfg Config, ft FTConfig) (*Sim, error) { return core.OpenSupervised(cfg, ft) }

// Experiment regenerates one of the paper's tables or figures.
type Experiment = bench.Experiment

// Report is a regenerated table or figure as labelled text.
type Report = bench.Report

// ExperimentOptions scales the experiment suite.
type ExperimentOptions = bench.Options

// Experiments lists every regenerable table and figure.
func Experiments() []Experiment { return bench.All }

// ExperimentByID resolves an experiment id such as "T1" or "F6".
func ExperimentByID(id string) (Experiment, error) { return bench.ByID(id) }
