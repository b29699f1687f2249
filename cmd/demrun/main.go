// Command demrun executes one DEM simulation with explicit parameters
// and reports its modelled and wall timings, energies and counters.
//
// Examples:
//
//	demrun -d 3 -n 50000 -mode hybrid -p 4 -t 4 -bpp 2 -platform CPQ
//	demrun -d 2 -n 100000 -mode mpi -p 16 -rc 2.0 -noreorder
//	demrun -d 2 -n 30000 -mode serial -fill 0.25 -gravity -30
//	demrun -d 2 -n 250 -verify
//
// With -verify the run becomes a differential conformance check: the
// configuration is pushed through every execution mode, force-update
// strategy and reordering setting, and each trajectory is compared
// step by step against the serial baseline. The exit status is nonzero
// when any variant diverges.
//
// Fault tolerance: -supervise runs MPI/hybrid configurations under a
// supervisor that snapshots at list rebuilds and recovers from
// detected faults by rolling back (and, after a rank kill, degrading
// to P-1 ranks); the -chaos-* flags inject deterministic faults for
// testing it. -checkpoint-every N writes crash-safe on-disk
// checkpoints to the -save path every N measured iterations.
//
// Interruption: SIGINT/SIGTERM stop the run cooperatively at the next
// measured step boundary; with -save the partial state is checkpointed
// (crash-safe, resumable with -load towards the same cumulative
// -iters). A second signal exits immediately.
//
// Exit codes: 0 success; 1 run or configuration error; 2 usage error
// or nothing to do (the -load checkpoint already holds -iters
// iterations); 3 unrecoverable fault (a detected kill, corruption or
// watchdog timeout that supervision could not, or was not asked to,
// recover from); 4 interrupted by a signal (the summary and any -save
// checkpoint reflect the completed iterations).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"hybriddem"
	"hybriddem/internal/profiling"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("demrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		d        = fs.Int("d", 3, "spatial dimensions (1-3)")
		n        = fs.Int("n", 20000, "particle count")
		mode     = fs.String("mode", "serial", strings.Join(hybriddem.ModeNames(), " | "))
		p        = fs.Int("p", 1, "MPI ranks")
		t        = fs.Int("t", 1, "threads per rank")
		bpp      = fs.Int("bpp", 1, "blocks per process (granularity B/P)")
		rc       = fs.Float64("rc", 1.5, "cutoff factor rc/rmax")
		method   = fs.String("method", "selected-atomic", strings.Join(hybriddem.MethodNames(), " | "))
		fused    = fs.Bool("fused", false, "fuse the hybrid force loop into one region (Section 11)")
		rebal    hybriddem.StrategyFlag
		platform = fs.String("platform", "CPQ", "virtual platform: Sun | T3E | CPQ | none")
		iters    = fs.Int("iters", 10, "measured iterations (cumulative total when resuming with -load)")
		warmup   = fs.Int("warmup", 2, "warm-up iterations")
		seed     = fs.Int64("seed", 1, "random seed")
		noreord  = fs.Bool("noreorder", false, "disable cache particle reordering")
		overlap  = fs.Bool("overlap", true, "split-phase halo exchange overlapping communication with the core-link pass")
		walls    = fs.Bool("walls", false, "reflecting walls instead of periodic boundaries")
		gravity  = fs.Float64("gravity", 0, "gravity along the last dimension")
		fill     = fs.Float64("fill", 0, "cluster particles into the bottom fraction of the box (0 = uniform)")
		damp     = fs.Float64("damp", 0, "dissipative spring damping")
		hertz    = fs.Bool("hertz", false, "Hertzian contact law instead of the linear spring")
		f32      = fs.Bool("float32", false, "single-precision pair kernel (serial mode only; not bit-identical)")
		initVel  = fs.Float64("vel", 0, "initial velocity scale")
		modelN   = fs.Int("modeln", 0, "model the cache behaviour of this many particles (0 = actual N)")
		save     = fs.String("save", "", "write a checkpoint of the final state to this file")
		load     = fs.String("load", "", "resume from a checkpoint file")
		ckEvery  = fs.Int("checkpoint-every", 0, "also checkpoint to the -save file every N measured iterations (crash-safe atomic writes)")
		supv     = fs.Bool("supervise", false, "run under fault supervision: snapshot, detect, roll back, degrade (MPI/hybrid)")
		snapEv   = fs.Int("snapshot-every", 1, "with -supervise, take an in-memory snapshot at every k-th list rebuild")
		maxRetry = fs.Int("max-retries", 3, "with -supervise, recovery attempts before giving up (exit 3)")
		watchdog = fs.Duration("watchdog", 0, "deadline for blocking receives/collectives; stalls surface as faults (0 = off)")
		cKill    = fs.String("chaos-kill", "", "inject a rank failure, as rank@step (e.g. 1@9)")
		cCorrupt = fs.Float64("chaos-corrupt", 0, "per-message probability of flipping one payload bit")
		cDup     = fs.Float64("chaos-dup", 0, "per-message probability of duplicating the message")
		cDelayP  = fs.Float64("chaos-delay-prob", 0, "per-message probability of delaying delivery")
		cDelay   = fs.Duration("chaos-delay", time.Millisecond, "wall-clock delay applied to delayed messages")
		cMax     = fs.Int("chaos-max", 0, "total injection budget across corrupt/dup/delay (0 = unlimited)")
		cSeed    = fs.Int64("chaos-seed", 1, "seed for the deterministic fault plan")
		export   = fs.String("export", "", "write the final state for visualisation (.vtk, .xyz or .csv)")
		verify   = fs.Bool("verify", false, "run the differential conformance matrix instead of a timing run")
		verTol   = fs.Float64("verify-tol", 0, "conformance tolerance (0 = default 1e-7)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file at exit")
		aStats   = fs.Bool("allocstats", false, "print allocation statistics to stderr at exit")
	)
	fs.Var(&rebal, "rebalance",
		"dynamic load balancing at list rebuilds (MPI/hybrid): "+
			strings.Join(hybriddem.StrategyNames(), " | ")+
			" (bare flag = lpt; name a strategy with '=', e.g. -rebalance=orb)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	prof, err := profiling.Start(profiling.Options{CPUProfile: *cpuProf, MemProfile: *memProf, AllocStats: *aStats}, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "demrun:", err)
		return 2
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(stderr, "demrun:", err)
		}
	}()

	cfg := hybriddem.Default(*d, *n)
	cfg.RCFactor = *rc
	cfg.Seed = *seed
	cfg.Reorder = !*noreord
	cfg.Overlap = *overlap
	cfg.P, cfg.T = *p, *t
	cfg.BlocksPerProc = *bpp
	cfg.Fused = *fused
	cfg.Rebalance = rebal.S
	cfg.Warmup = *warmup
	cfg.Gravity = *gravity
	cfg.FillHeight = *fill
	cfg.Spring.Damp = *damp
	cfg.Spring.Hertz = *hertz
	cfg.Float32 = *f32
	cfg.InitVel = *initVel
	cfg.ModelN = *modelN
	if *walls {
		cfg.BC = hybriddem.Reflecting
	}

	m, err := hybriddem.ModeByName(*mode)
	if err != nil {
		fmt.Fprintln(stderr, "demrun:", err)
		return 2
	}
	cfg.Mode = m

	if cfg.Method, err = hybriddem.MethodByName(*method); err != nil {
		fmt.Fprintln(stderr, "demrun:", err)
		return 2
	}

	if strings.ToLower(*platform) != "none" {
		pf, err := hybriddem.PlatformByName(*platform)
		if err != nil {
			fmt.Fprintln(stderr, "demrun:", err)
			return 2
		}
		cfg.Platform = pf
	}

	if *cKill != "" || *cCorrupt > 0 || *cDup > 0 || *cDelayP > 0 {
		plan := hybriddem.NewFaultPlan(*cSeed)
		plan.CorruptProb = *cCorrupt
		plan.DuplicateProb = *cDup
		plan.DelayProb = *cDelayP
		plan.DelayWall = *cDelay
		plan.MaxFaults = *cMax
		if *cKill != "" {
			rank, step, err := hybriddem.ParseKill(*cKill)
			if err != nil {
				fmt.Fprintln(stderr, "demrun:", err)
				return 2
			}
			plan.ArmKill(rank, step)
		}
		cfg.Faults = plan
	}
	cfg.Watchdog = *watchdog

	if *verify {
		c, err := hybriddem.RunConformance(cfg, *iters, *verTol)
		if err != nil {
			fmt.Fprintln(stderr, "demrun:", err)
			return 1
		}
		fmt.Fprint(stdout, c)
		if len(c.Failed()) > 0 {
			return 1
		}
		return 0
	}

	// Cooperative interruption: the first SIGINT/SIGTERM asks the run to
	// stop at its next measured step boundary (the partial state stays
	// checkpointable); a second signal gives up waiting and exits hard.
	var stopRequested atomic.Bool
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		<-sigc
		fmt.Fprintln(stderr, "demrun: interrupted; stopping at the next step boundary (signal again to exit now)")
		stopRequested.Store(true)
		<-sigc
		fmt.Fprintln(stderr, "demrun: second signal; exiting immediately")
		os.Exit(130)
	}()
	cfg.Stop = stopRequested.Load
	if testInterruptArmed != nil {
		close(testInterruptArmed)
		testInterruptArmed = nil
	}

	if *ckEvery < 0 {
		fmt.Fprintln(stderr, "demrun: -checkpoint-every must be >= 0")
		return 2
	}
	if *ckEvery > 0 && *save == "" {
		fmt.Fprintln(stderr, "demrun: -checkpoint-every needs -save for the checkpoint path")
		return 2
	}
	if *save != "" || *export != "" {
		cfg.CollectState = true
	}
	// -iters counts cumulative iterations: a resumed run executes only
	// the remainder, so "run N; save; load; run to N+M" reproduces one
	// unbroken N+M run. The saved state already includes the original
	// warm-up, so a resume must not warm up again — extra unmeasured
	// steps would silently advance the physics past the requested total.
	done := 0
	if *load != "" {
		snap, err := hybriddem.LoadCheckpoint(*load, &cfg)
		if err != nil {
			fmt.Fprintln(stderr, "demrun:", err)
			return 1
		}
		done = snap.Iters
		if *iters <= done {
			fmt.Fprintf(stderr, "demrun: checkpoint %s already holds %d iterations; -iters %d leaves nothing to run\n",
				*load, done, *iters)
			return 2
		}
		cfg.Warmup = 0
	}

	// Unrecoverable faults — a detected kill, corruption or timeout
	// with no supervisor, or one that survived every retry — exit 3 so
	// scripts can tell them from plain configuration errors (1).
	fail := func(err error) int {
		fmt.Fprintln(stderr, "demrun:", err)
		if hybriddem.AsFaultError(err) != nil {
			return 3
		}
		return 1
	}

	// One live session for the whole run; -save checkpoints it at the
	// end (an interrupted run, at what it completed) and, atomically and
	// in place, at every absolute multiple of -checkpoint-every on the way.
	var sim *hybriddem.Sim
	if *supv {
		sim, err = hybriddem.OpenSupervised(cfg, hybriddem.FTConfig{SnapshotEvery: *snapEv, MaxRetries: *maxRetry})
	} else {
		sim, err = hybriddem.Open(cfg)
	}
	if err != nil {
		return fail(err)
	}
	defer sim.Close()
	var saveAt func(*hybriddem.Result, int) error
	if *save != "" {
		saveAt = func(snap *hybriddem.Result, done int) error {
			return hybriddem.SaveCheckpoint(*save, &cfg, snap, done)
		}
	}
	_, err = sim.AdvanceTo(done, *iters, *ckEvery, saveAt)
	interrupted := errors.Is(err, hybriddem.ErrCanceled)
	if err != nil && !interrupted {
		return fail(err)
	}
	res := sim.Result()
	switch {
	case *ckEvery > 0:
		fmt.Fprintf(stdout, "checkpoint     %s (every %d iterations)\n", *save, *ckEvery)
	case *save != "":
		fmt.Fprintf(stdout, "checkpoint     %s\n", *save)
	}
	if interrupted {
		fmt.Fprintf(stdout, "interrupted     stopped after %d of %d measured iterations\n", res.Iters, *iters-done)
	}
	if *export != "" {
		if err := hybriddem.ExportState(*export, &cfg, res); err != nil {
			fmt.Fprintln(stderr, "demrun:", err)
			return 1
		}
		fmt.Fprintf(stdout, "exported       %s\n", *export)
	}

	balance := ""
	if cfg.Rebalance.Enabled() {
		balance = ", rebalance=" + cfg.Rebalance.String()
	}
	fmt.Fprintf(stdout, "mode            %v (P=%d, T=%d, B/P=%d%s)\n", cfg.Mode, cfg.P, cfg.T, cfg.BlocksPerProc, balance)
	fmt.Fprintf(stdout, "system          D=%d, N=%d, L=%.4g, rc=%.3g, %v\n", cfg.D, cfg.N, cfg.L, cfg.RC(), cfg.BC)
	if cfg.Platform != nil {
		fmt.Fprintf(stdout, "platform        %s (%d nodes x %d CPUs)\n", cfg.Platform.Name, cfg.Platform.Nodes, cfg.Platform.CPUsPerNode)
	}
	if done > 0 {
		fmt.Fprintf(stdout, "iterations      %d cumulative (%d restored + %d new)\n", done+res.Iters, done, res.Iters)
	} else {
		fmt.Fprintf(stdout, "iterations      %d measured after %d warm-up\n", res.Iters, cfg.Warmup)
	}
	fmt.Fprintf(stdout, "model time/iter %.6f s  (force %.6f, update %.6f, comm %.6f, coll %.6f)\n",
		res.PerIter, res.ForceTime, res.UpdateTime, res.CommTime, res.CollTime)
	fmt.Fprintf(stdout, "wall time/iter  %.6f s\n", res.Wall.Seconds()/float64(res.Iters))
	fmt.Fprintf(stdout, "energy          potential %.6g, kinetic %.6g\n", res.Epot, res.Ekin)
	fmt.Fprintf(stdout, "links           %d (mean index distance %.0f)\n", res.NLinks, res.MeanLinkDist)
	fmt.Fprintf(stdout, "rebuilds        %d during measurement\n", res.Rebuilds)
	if res.AtomicFraction > 0 {
		fmt.Fprintf(stdout, "lock fraction   %.2f%% of force updates\n", 100*res.AtomicFraction)
	}
	tc := res.TC
	fmt.Fprintf(stdout, "counters        %d force evals, %d contacts, %d msgs (%d bytes), %d regions\n",
		tc.ForceEvals, tc.Contacts, tc.MsgsSent, tc.BytesSent, tc.ParallelRegions)
	if interrupted {
		return 4
	}
	return 0
}

// testInterruptArmed, when a test sets it, is closed once the signal
// handler is installed — the synchronisation point after which a
// test-sent SIGINT is guaranteed to reach the stop hook.
var testInterruptArmed chan struct{}
