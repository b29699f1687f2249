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

// TestThreadEkinIsOrderedSumOfPartials: in the thread modes the kinetic
// energy comes out of the sweep's region as one partial per thread,
// added by the master in thread order. With a deterministic force
// reduction (transpose) and the store left in ID order, an OpenMP run's
// Result.Ekin at T=3 is therefore the same float on every one of
// twenty runs, and exactly the sum, thread by thread, of the static
// chunks' partial sums over the final velocities. A hybrid run repeats
// to the bit as well.
func TestThreadEkinIsOrderedSumOfPartials(t *testing.T) {
	const iters, T, runs = 25, 3, 20
	cfg := testConfig(3, 600)
	cfg.Mode, cfg.T, cfg.Method, cfg.Reorder = OpenMP, T, shm.Transpose, false
	first, err := Run(cfg, iters)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for th := 0; th < T; th++ {
		part := 0.0
		for i := th * cfg.N / T; i < (th+1)*cfg.N/T; i++ { // the static schedule
			v := first.Vel[i]
			part += 0.5 * (v[0]*v[0] + v[1]*v[1] + v[2]*v[2])
		}
		want += part
	}
	if first.Ekin != want {
		t.Errorf("openmp T=%d: Ekin %.17g, thread-ordered sum of chunk partials %.17g", T, first.Ekin, want)
	}

	hyb := testConfig(3, 600)
	hyb.Mode, hyb.P, hyb.T, hyb.BlocksPerProc, hyb.Method = Hybrid, 2, T, 2, shm.Transpose
	firstHyb, err := Run(hyb, iters)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < runs; run++ {
		if res, err := Run(cfg, iters); err != nil || res.Ekin != first.Ekin {
			t.Fatalf("openmp run %d: Ekin %.17g (%v), first run %.17g", run, res.Ekin, err, first.Ekin)
		}
		if res, err := Run(hyb, iters); err != nil || res.Ekin != firstHyb.Ekin {
			t.Fatalf("hybrid run %d: Ekin %.17g (%v), first run %.17g", run, res.Ekin, err, firstHyb.Ekin)
		}
	}
}
