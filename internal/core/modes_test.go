package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"hybriddem/internal/geom"
	"hybriddem/internal/machine"
	"hybriddem/internal/shm"
)

// TestDampedHybridMatchesSerial exercises the velocity-carrying halo
// path: with dissipative springs the force law reads relative
// velocities, so halo traffic must include them. A mismatch would
// silently diverge the trajectories.
func TestDampedHybridMatchesSerial(t *testing.T) {
	const iters = 100
	for _, d := range []int{2, 3} {
		cfg := testConfig(d, 250)
		cfg.Spring.Damp = 1.5
		serial, err := Run(cfg, iters)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{MPI, Hybrid} {
			cfg := testConfig(d, 250)
			cfg.Spring.Damp = 1.5
			cfg.Mode = mode
			cfg.P = 2
			if mode == Hybrid {
				cfg.T = 2
			}
			cfg.BlocksPerProc = 2
			res, err := Run(cfg, iters)
			if err != nil {
				t.Fatalf("D=%d %v: %v", d, mode, err)
			}
			if e := maxPosErr(t, cfg.Box(), serial, res); e > 1e-7 {
				t.Errorf("D=%d %v damped: max position deviation %g", d, mode, e)
			}
		}
	}
}

// TestHertzContactAcrossModes: the Hertzian contact variant must run
// identically in every execution mode.
func TestHertzContactAcrossModes(t *testing.T) {
	const iters = 80
	cfg := testConfig(2, 250)
	cfg.Spring.Hertz = true
	serial, err := Run(cfg, iters)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{OpenMP, MPI, Hybrid} {
		cfg := testConfig(2, 250)
		cfg.Spring.Hertz = true
		cfg.Mode = mode
		switch mode {
		case OpenMP:
			cfg.T = 3
		case MPI:
			cfg.P = 4
		case Hybrid:
			cfg.P, cfg.T = 2, 2
		}
		cfg.BlocksPerProc = 2
		if mode == OpenMP {
			cfg.BlocksPerProc = 1
		}
		res, err := Run(cfg, iters)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if e := maxPosErr(t, cfg.Box(), serial, res); e > 1e-7 {
			t.Errorf("%v hertz: max position deviation %g", mode, e)
		}
	}
}

// TestDampedEnergyDecays: with dissipation and no driving, the total
// energy must fall monotonically over a run (checked at endpoints).
func TestDampedEnergyDecays(t *testing.T) {
	cfg := testConfig(2, 300)
	cfg.Spring.Damp = 3
	short, err := Run(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := testConfig(2, 300)
	cfg2.Spring.Damp = 3
	long, err := Run(cfg2, 400)
	if err != nil {
		t.Fatal(err)
	}
	e0 := short.Epot + short.Ekin
	e1 := long.Epot + long.Ekin
	if e1 >= e0 {
		t.Errorf("damped energy grew: %g -> %g", e0, e1)
	}
}

// TestClusteredFillMatchesAcrossModes: the FillHeight clustered
// initial condition must produce identical systems in shared and
// decomposed runs, including blocks that start empty.
func TestClusteredFillMatchesAcrossModes(t *testing.T) {
	const iters = 60
	cfg := testConfig(2, 300)
	cfg.FillHeight = 0.3
	cfg.BC = geom.Reflecting
	cfg.Gravity = -20
	serial, err := Run(cfg, iters)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4} {
		cfg := testConfig(2, 300)
		cfg.FillHeight = 0.3
		cfg.BC = geom.Reflecting
		cfg.Gravity = -20
		cfg.Mode = MPI
		cfg.P = p
		cfg.BlocksPerProc = 2
		res, err := Run(cfg, iters)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if e := maxPosErr(t, cfg.Box(), serial, res); e > 1e-7 {
			t.Errorf("P=%d clustered: max position deviation %g", p, e)
		}
	}
}

// TestClusteredLoadImbalanceVisible: on a virtual platform, a
// clustered system at B/P=1 must be measurably slower per iteration
// than a finer-grained run of the same system — the modelled clocks
// must expose load imbalance, since that is the entire premise of the
// paper's comparison.
func TestClusteredLoadImbalanceVisible(t *testing.T) {
	run := func(bpp int) float64 {
		cfg := Default(2, 20000)
		cfg.FillHeight = 0.25
		cfg.BC = geom.Reflecting
		cfg.Seed = 5
		cfg.Platform = machine.CompaqES40()
		cfg.Mode = MPI
		cfg.P = 16
		cfg.BlocksPerProc = bpp
		cfg.Warmup = 1
		res, err := Run(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		return res.PerIter
	}
	coarse := run(1)
	fine := run(16)
	if fine >= coarse {
		t.Errorf("granularity did not help the clustered system: B/P=1 %gs vs B/P=16 %gs", coarse, fine)
	}
	if coarse < 1.5*fine {
		t.Errorf("imbalance too mild to be the paper's scenario: %g vs %g", coarse, fine)
	}
}

// TestFusedReducesLocksAndTime: the Section 11 fused loop must lower
// both the conflict fraction and the modelled time at fine
// granularity.
func TestFusedReducesLocksAndTime(t *testing.T) {
	run := func(fused bool) *Result {
		cfg := Default(3, 30000)
		cfg.Seed = 7
		cfg.Platform = machine.CompaqES40()
		cfg.Mode = Hybrid
		cfg.P = 4
		cfg.T = 4
		cfg.BlocksPerProc = 8
		cfg.Method = shm.SelectedAtomic
		cfg.Fused = fused
		cfg.Warmup = 1
		res, err := Run(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	perBlock := run(false)
	fusedRes := run(true)
	if fusedRes.AtomicFraction >= perBlock.AtomicFraction {
		t.Errorf("fused lock fraction %g not below per-block %g",
			fusedRes.AtomicFraction, perBlock.AtomicFraction)
	}
	if fusedRes.PerIter >= perBlock.PerIter {
		t.Errorf("fused time %g not below per-block %g", fusedRes.PerIter, perBlock.PerIter)
	}
	if fusedRes.TC.ParallelRegions >= perBlock.TC.ParallelRegions {
		t.Errorf("fused regions %d not below per-block %d",
			fusedRes.TC.ParallelRegions, perBlock.TC.ParallelRegions)
	}
}

// TestReorderingImprovesModelledTime reproduces the Table 1 vs 2
// relationship on every platform.
func TestReorderingImprovesModelledTime(t *testing.T) {
	for _, pf := range machine.Platforms() {
		run := func(reorder bool) float64 {
			cfg := Default(2, 20000)
			cfg.Seed = 3
			cfg.Platform = pf
			cfg.ModelN = 1_000_000
			cfg.Reorder = reorder
			cfg.Warmup = 1
			res, err := Run(cfg, 3)
			if err != nil {
				t.Fatal(err)
			}
			return res.PerIter
		}
		slow := run(false)
		fast := run(true)
		if fast >= slow {
			t.Errorf("%s: reordering did not help: %g vs %g", pf.Name, fast, slow)
		}
		gain := slow / fast
		if gain < 1.1 || gain > 2.2 {
			t.Errorf("%s: reordering gain %.2fx outside the paper's 1.2-1.6x band (with margin)", pf.Name, gain)
		}
	}
}

// TestVirtualTimeDeterminism: modelled times must be bitwise
// reproducible across runs regardless of goroutine scheduling.
func TestVirtualTimeDeterminism(t *testing.T) {
	run := func() float64 {
		cfg := Default(3, 5000)
		cfg.Seed = 11
		cfg.Platform = machine.CompaqES40()
		cfg.Mode = Hybrid
		cfg.P = 2
		cfg.T = 3
		cfg.BlocksPerProc = 2
		cfg.Method = shm.SelectedAtomic
		res, err := Run(cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		return res.PerIter
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("modelled time not deterministic: %v vs %v", got, first)
		}
	}
}

// TestValidationErrors exercises the config error paths.
func TestValidationErrors(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.D = 0 },
		func(c *Config) { c.N = 0 },
		func(c *Config) { c.L = -1 },
		func(c *Config) { c.RCFactor = 1.0 },
		func(c *Config) { c.Dt = 0 },
		func(c *Config) { c.Spring.Diameter = 0 },
		func(c *Config) { c.P = 0 },
		func(c *Config) { c.Mode = OpenMP; c.P = 2 },
		func(c *Config) { c.Mode = MPI; c.T = 2; c.P = 2 },
		func(c *Config) { c.Mode = Serial; c.T = 4 },
	}
	for i, mutate := range bad {
		cfg := Default(2, 100)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	good := Default(3, 10)
	if err := good.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// TestModeTableCoverage pins the single name<->Mode table: every
// declared mode must round-trip through ModeByName (case-insensitively)
// and validate under a legal shape, and anything outside the table —
// an unknown name or an out-of-range Mode value — must be rejected by
// name lookup, String and Validate alike. This is the regression test
// for the flag-parsing drift where each command kept its own private
// mode switch and silently fell back on a default.
func TestModeTableCoverage(t *testing.T) {
	if len(Modes()) != len(ModeNames()) {
		t.Fatalf("Modes() has %d entries, ModeNames() %d", len(Modes()), len(ModeNames()))
	}
	shape := map[Mode]func(*Config){
		Serial: func(c *Config) {},
		OpenMP: func(c *Config) { c.T = 3 },
		MPI:    func(c *Config) { c.P = 4 },
		Hybrid: func(c *Config) { c.P, c.T = 2, 2 },
		MPIsm:  func(c *Config) { c.P = 4 },
	}
	for i, m := range Modes() {
		name := ModeNames()[i]
		if m.String() != name {
			t.Errorf("mode %d: String() = %q, table name %q", int(m), m.String(), name)
		}
		for _, spelled := range []string{name, strings.ToUpper(name)} {
			got, err := ModeByName(spelled)
			if err != nil || got != m {
				t.Errorf("ModeByName(%q) = %v, %v; want %v", spelled, got, err, m)
			}
		}
		mutate, ok := shape[m]
		if !ok {
			t.Fatalf("mode %v declared in the table but this test knows no legal shape for it — extend the shape map", m)
		}
		cfg := Default(2, 100)
		cfg.Mode = m
		mutate(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("legal %v config rejected: %v", m, err)
		}
	}
	if _, err := ModeByName("smpi"); err == nil {
		t.Error("unknown mode name accepted")
	}
	bogus := Default(2, 100)
	bogus.Mode = Mode(99)
	if err := bogus.Validate(); err == nil {
		t.Error("out-of-range mode validated")
	} else if !strings.Contains(err.Error(), "unrecognised mode") {
		t.Errorf("out-of-range mode error %q does not name the cause", err)
	}
	if s := Mode(99).String(); !strings.Contains(s, "99") {
		t.Errorf("Mode(99).String() = %q", s)
	}
}

// TestMpismValidation pins mpism's own constraint: threads are the
// node's other ranks, so T>1 is illegal.
func TestMpismValidation(t *testing.T) {
	cfg := Default(2, 100)
	cfg.Mode = MPIsm
	cfg.P, cfg.T = 4, 2
	if err := cfg.Validate(); err == nil {
		t.Error("mpism with T=2 accepted")
	}
}

// TestRunDispatch covers the top-level mode dispatch including the
// error path.
func TestRunDispatch(t *testing.T) {
	cfg := testConfig(2, 120)
	if _, err := Run(cfg, 5); err != nil {
		t.Fatal(err)
	}
	cfg.Mode = Mode(99)
	if _, err := Run(cfg, 5); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := Run(Config{}, 1); err == nil {
		t.Error("zero config accepted")
	}
	mpiCfg := testConfig(2, 120)
	mpiCfg.Mode = MPI
	mpiCfg.P = 50 // forces block edges below rc
	mpiCfg.BlocksPerProc = 64
	if _, err := Run(mpiCfg, 2); err == nil {
		t.Error("too-fine layout accepted")
	}
}

// TestSkinAndRC checks the derived geometry quantities.
func TestSkinAndRC(t *testing.T) {
	cfg := Default(2, 100)
	cfg.Spring.Diameter = 0.1
	cfg.RCFactor = 1.5
	if math.Abs(cfg.RC()-0.15) > 1e-12 {
		t.Errorf("RC = %g", cfg.RC())
	}
	if math.Abs(cfg.Skin()-0.025) > 1e-12 {
		t.Errorf("Skin = %g", cfg.Skin())
	}
	box := cfg.Box()
	if box.D != 2 || box.Len[0] != cfg.L {
		t.Errorf("Box = %+v", box)
	}
}

// TestEfficiencyHelper checks Result.Efficiency arithmetic.
func TestEfficiencyHelper(t *testing.T) {
	ref := &Result{PerIter: 8}
	r := &Result{PerIter: 2}
	if got := r.Efficiency(ref, 2); got != 2 {
		t.Errorf("efficiency = %g", got)
	}
	zero := &Result{}
	if zero.Efficiency(ref, 1) != 0 {
		t.Error("zero-time efficiency should be 0")
	}
}

// TestWallTimesTheMeasuredLoopOnly: Result.Wall means the same thing in
// every mode — the measured iterations, not placement, the first list
// build, the warm-up or the teardown. With forty warm-up steps for
// every measured one, a stopwatch around the whole run would read about
// the call's own duration; the measured loop is a small fraction of it.
// Three attempts, so one hypervisor stall inside a five-step window
// cannot fail the test.
func TestWallTimesTheMeasuredLoopOnly(t *testing.T) {
	const iters = 5
	modes := map[string]func(*Config){
		"serial": func(c *Config) {},
		"openmp": func(c *Config) { c.Mode = OpenMP; c.T = 2 },
		"mpi":    func(c *Config) { c.Mode = MPI; c.P = 2 },
		"mpism":  func(c *Config) { c.Mode = MPIsm; c.P = 2 },
		"hybrid": func(c *Config) { c.Mode = Hybrid; c.P, c.T = 2, 2 },
	}
	for name, set := range modes {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(2, 2000)
			cfg.CollectState = false
			cfg.Warmup = 40 * iters
			set(&cfg)
			var wall, call time.Duration
			for attempt := 0; attempt < 3; attempt++ {
				t0 := time.Now()
				res, err := Run(cfg, iters)
				call = time.Since(t0)
				if err != nil {
					t.Fatal(err)
				}
				if wall = res.Wall; wall <= 0 {
					t.Fatalf("Wall = %v", wall)
				}
				if 4*wall < call {
					return
				}
			}
			t.Errorf("Wall %v of a %v call with %d warm-up and %d measured steps: set-up is inside the stopwatch", wall, call, cfg.Warmup, iters)
		})
	}
}
