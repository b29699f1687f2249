package core

import (
	"testing"

	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/grain"
	"hybriddem/internal/shm"
)

// grainConfig builds a box of falling composite grains with explicit
// initial state and a bond table.
func grainConfig(t *testing.T, d int, shape grain.Shape, grains int) Config {
	t.Helper()
	cfg := Default(d, shape.Size()*grains)
	cfg.L *= 3 // dilute: leave room for whole grains to fall freely
	cfg.BC = geom.Reflecting
	cfg.Gravity = -25
	cfg.Spring.K = 800
	cfg.Seed = 7
	cfg.CollectState = true

	gst, bonds, err := grain.Build(grain.Config{
		D: d, Shape: shape, Grains: grains,
		Diameter: cfg.Spring.Diameter,
		Box:      cfg.Box(),
		BondK:    2000, BondDamp: 4,
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Init = &State{Pos: gst.Pos, Vel: gst.Vel}
	cfg.Spring.Bonds = bonds
	return cfg
}

// TestGrainsStayIntact: falling grains must keep their bonds well
// inside the cutoff (otherwise the link list would sever them).
func TestGrainsStayIntact(t *testing.T) {
	for _, shape := range []grain.Shape{grain.Dimer, grain.Trimer, grain.Tetra} {
		cfg := grainConfig(t, 2, shape, 30)
		res, err := Run(cfg, 400)
		if err != nil {
			t.Fatal(err)
		}
		strain := cfg.Spring.Bonds.MaxBondStrain(res.Pos, cfg.Box())
		// Bonds must stay well below the breaking point where pairs
		// would leave the neighbour list: (rc - rest)/rest = 50%.
		if strain > 0.25 {
			t.Errorf("%v: max bond strain %.3f after settling", shape, strain)
		}
	}
}

// TestGrainsMatchAcrossModes: bonded grains must follow identical
// trajectories in every execution mode, including grains whose
// members straddle block boundaries and feel their bonds through
// halo copies.
func TestGrainsMatchAcrossModes(t *testing.T) {
	const iters = 120
	serialCfg := grainConfig(t, 2, grain.Trimer, 40)
	serial, err := Run(serialCfg, iters)
	if err != nil {
		t.Fatal(err)
	}

	type mv struct {
		mode Mode
		p, t int
	}
	for _, m := range []mv{{OpenMP, 1, 3}, {MPI, 4, 1}, {Hybrid, 2, 2}} {
		cfg := grainConfig(t, 2, grain.Trimer, 40)
		cfg.Mode = m.mode
		cfg.P, cfg.T = m.p, m.t
		cfg.BlocksPerProc = 2
		cfg.Method = shm.SelectedAtomic
		res, err := Run(cfg, iters)
		if err != nil {
			t.Fatalf("%v: %v", m.mode, err)
		}
		if e := maxPosErr(t, cfg.Box(), serial, res); e > 1e-7 {
			t.Errorf("%v: grain trajectories deviate by %g", m.mode, e)
		}
	}
}

// TestGrainEnergyDissipates: bond damping must bleed energy from a
// falling packing (after the initial gravitational acceleration the
// total energy at fixed height budget decreases); here we simply
// check the bonded run ends with less kinetic+potential spring energy
// than an elastic one.
func TestGrainEnergyDissipates(t *testing.T) {
	damped := grainConfig(t, 2, grain.Dimer, 40)
	elastic := grainConfig(t, 2, grain.Dimer, 40)
	elastic.Spring.Bonds.Damp = 0

	const iters = 500
	dres, err := Run(damped, iters)
	if err != nil {
		t.Fatal(err)
	}
	eres, err := Run(elastic, iters)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Ekin >= eres.Ekin {
		t.Errorf("bond damping did not dissipate: damped Ekin %g vs elastic %g", dres.Ekin, eres.Ekin)
	}
}

// TestBondTooLongRejected: a bond whose rest length reaches the
// cutoff must be rejected at validation, not silently severed later.
func TestBondTooLongRejected(t *testing.T) {
	cfg := Default(2, 2)
	bt := newLongBondTable(cfg.RC())
	cfg.Spring.Bonds = bt
	if err := cfg.Validate(); err == nil {
		t.Error("bond rest length at the cutoff accepted")
	}
}

func newLongBondTable(rc float64) *force.BondTable {
	bt := force.NewBondTable(2, 2, 10, 0)
	if err := bt.Add(0, 1, rc); err != nil {
		panic(err)
	}
	return bt
}
