package core

import (
	"math"
	"testing"

	"hybriddem/internal/geom"
	"hybriddem/internal/shm"
)

// testConfig returns a small, fast configuration at the paper's
// density with enough motion to force several list rebuilds.
func testConfig(d, n int) Config {
	cfg := Default(d, n)
	cfg.InitVel = 2.0
	cfg.Seed = 42
	cfg.CollectState = true
	return cfg
}

func maxPosErr(t *testing.T, box geom.Box, a, b *Result) float64 {
	t.Helper()
	if len(a.Pos) != len(b.Pos) {
		t.Fatalf("state sizes differ: %d vs %d", len(a.Pos), len(b.Pos))
	}
	maxd := 0.0
	for i := range a.Pos {
		d := math.Sqrt(box.Dist2(a.Pos[i], b.Pos[i]))
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

func TestSerialEnergyAndMomentum(t *testing.T) {
	for _, d := range []int{2, 3} {
		cfg := testConfig(d, 300)
		res, err := Run(cfg, 200)
		if err != nil {
			t.Fatal(err)
		}
		if res.NLinks == 0 {
			t.Fatalf("D=%d: no links built", d)
		}
		if res.Rebuilds == 0 {
			t.Errorf("D=%d: expected at least one list rebuild in 200 steps", d)
		}
		etot := res.Epot + res.Ekin
		if math.IsNaN(etot) || etot <= 0 {
			t.Fatalf("D=%d: bad total energy %g", d, etot)
		}
	}
}

func TestOpenMPMatchesSerial(t *testing.T) {
	const iters = 120
	for _, d := range []int{2, 3} {
		cfg := testConfig(d, 250)
		serial, err := Run(cfg, iters)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range shm.Methods {
			cfg := testConfig(d, 250)
			cfg.Mode = OpenMP
			cfg.T = 3
			cfg.Method = m
			res, err := Run(cfg, iters)
			if err != nil {
				t.Fatalf("D=%d %v: %v", d, m, err)
			}
			if e := maxPosErr(t, cfg.Box(), serial, res); e > 1e-7 {
				t.Errorf("D=%d method %v: max position deviation %g", d, m, e)
			}
		}
	}
}

func TestMPIMatchesSerial(t *testing.T) {
	const iters = 120
	for _, d := range []int{2, 3} {
		cfg := testConfig(d, 250)
		serial, err := Run(cfg, iters)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 4} {
			for _, bpp := range []int{1, 4} {
				cfg := testConfig(d, 250)
				cfg.Mode = MPI
				cfg.P = p
				cfg.BlocksPerProc = bpp
				res, err := Run(cfg, iters)
				if err != nil {
					t.Fatalf("D=%d P=%d B/P=%d: %v", d, p, bpp, err)
				}
				if e := maxPosErr(t, cfg.Box(), serial, res); e > 1e-7 {
					t.Errorf("D=%d P=%d B/P=%d: max position deviation %g", d, p, bpp, e)
				}
			}
		}
	}
}

func TestHybridMatchesSerial(t *testing.T) {
	const iters = 100
	for _, d := range []int{2, 3} {
		cfg := testConfig(d, 250)
		serial, err := Run(cfg, iters)
		if err != nil {
			t.Fatal(err)
		}
		for _, fused := range []bool{false, true} {
			cfg := testConfig(d, 250)
			cfg.Mode = Hybrid
			cfg.P = 2
			cfg.T = 2
			cfg.BlocksPerProc = 2
			cfg.Method = shm.SelectedAtomic
			cfg.Fused = fused
			res, err := Run(cfg, iters)
			if err != nil {
				t.Fatalf("D=%d fused=%v: %v", d, fused, err)
			}
			if e := maxPosErr(t, cfg.Box(), serial, res); e > 1e-7 {
				t.Errorf("D=%d fused=%v: max position deviation %g", d, fused, e)
			}
		}
	}
}
