package core

import (
	"fmt"
	"math"
	"testing"

	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/shm"
)

// viewModes are the five execution modes, and the rank modes again on
// the synchronous exchange, whose rebuild vote is DisplacementValid's
// rather than the overlapped one; the thread rows use the Transpose
// reduction, whose bits do not depend on the host's scheduling at T=2.
var viewModes = []struct {
	name string
	set  func(*Config)
}{
	{"serial", func(c *Config) { c.Mode = Serial }},
	{"openmp", func(c *Config) { c.Mode = OpenMP; c.T = 2; c.Method = shm.Transpose }},
	{"mpi", func(c *Config) { c.Mode = MPI; c.P = 2; c.BlocksPerProc = 2 }},
	{"hybrid", func(c *Config) { c.Mode = Hybrid; c.P = 2; c.T = 2; c.Method = shm.Transpose }},
	{"mpism", func(c *Config) { c.Mode = MPIsm; c.P = 2 }},
	{"mpi-sync", func(c *Config) { c.Mode = MPI; c.P = 2; c.BlocksPerProc = 2; c.Overlap = false }},
	{"hybrid-sync", func(c *Config) { c.Mode = Hybrid; c.P = 2; c.T = 2; c.Method = shm.Transpose; c.Overlap = false }},
}

// skinOnly returns cfg walking the skin list every step: an empty bond
// table sends the pair kernel down its generic path, which computes the
// same finite bits (TestSoABitIdenticalToSeed) and never takes a view.
func skinOnly(cfg Config) Config {
	cfg.Spring.Bonds = force.NewBondTable(cfg.N, 1, cfg.Spring.K, 0)
	return cfg
}

// sameBits reports whether two float64 bit patterns are equal, or both
// NaN: the generic kernel and the batched one differ in the sign a NaN
// comes out with, which nothing reads.
func sameBits(a, b uint64) bool {
	return a == b || math.IsNaN(math.Float64frombits(a)) && math.IsNaN(math.Float64frombits(b))
}

// stepBits runs cfg for iters steps and returns every step's positions
// and velocities by particle id as bits, so that NaNs compare too.
func stepBits(t *testing.T, cfg Config, iters int) ([][]uint64, *Result) {
	t.Helper()
	var steps [][]uint64
	cfg.Probe = func(_ int, pos, vel []geom.Vec) {
		bits := make([]uint64, 0, 2*len(pos)*cfg.D)
		for i := range pos {
			for k := 0; k < cfg.D; k++ {
				bits = append(bits, math.Float64bits(pos[i][k]), math.Float64bits(vel[i][k]))
			}
		}
		steps = append(steps, bits)
	}
	res, err := Run(cfg, iters)
	if err != nil {
		t.Fatal(err)
	}
	return steps, res
}

// TestNaNExpiresTheView injects a NaN into one particle after its lists
// were built and pruned — as a position a resume writes after the
// rebuild, and as a velocity the next sweep turns into one — in each
// mode, into a particle of the first rank and into one of the last.
// Every mode must run on without panicking, rebuild as often as every
// other, and produce the bits of the same run walking its skin list on
// every step: the NaN reaches every particle linked to the blown-up
// one, not only those the view kept. A NaN displacement that passed
// for a small one would leave a stale view in use and finite forces on
// the rest. NaNs compare as NaNs (sameBits).
func TestNaNExpiresTheView(t *testing.T) {
	const iters = 3
	base := testConfig(3, 1500)
	base.InitVel = 0.5
	base.Warmup = 0
	start, err := Run(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The particles nearest the origin and the far corner: the first
	// block's and the last's, on rank 0 and on rank 1 in every rank mode
	// here, so that the NaN has to travel through the reduction.
	st0 := start.Arrangement.State(base.D)
	near, far := 0, 0
	for i, x := range st0.Pos {
		if x[0]+x[1]+x[2] < st0.Pos[near][0]+st0.Pos[near][1]+st0.Pos[near][2] {
			near = i
		}
		if x[0]+x[1]+x[2] > st0.Pos[far][0]+st0.Pos[far][1]+st0.Pos[far][2] {
			far = i
		}
	}
	// Both injections rebuild at the end of every step: a NaN reference
	// stays NaN. The position makes the first step walk the skin list;
	// the velocity takes effect in the first step's sweep, after a force
	// pass the view still served.
	injections := []struct {
		name  string
		set   func(st *State, i int)
		views int
	}{
		{"position", func(st *State, i int) { st.Pos[i][1] = math.NaN() }, iters - 1},
		{"velocity", func(st *State, i int) { st.Vel[i][2] = math.NaN() }, iters},
	}
	for _, inj := range injections {
		for _, m := range viewModes {
			for _, victim := range []int{near, far} {
				t.Run(fmt.Sprintf("%s/%s/slot%d", inj.name, m.name, victim), func(t *testing.T) {
					cfg := base
					m.set(&cfg)
					st := start.Arrangement.State(cfg.D)
					inj.set(st, victim)
					cfg.Init = st
					got, res := stepBits(t, cfg, iters)
					want, oracle := stepBits(t, skinOnly(cfg), iters)
					for s := range want {
						for w := range want[s] {
							if !sameBits(got[s][w], want[s][w]) {
								p, k, f := w/(2*cfg.D), w/2%cfg.D, [2]string{"pos", "vel"}[w%2]
								t.Fatalf("step %d: particle %d %s[%d] is %#x (%g), the skin-list walk's %#x (%g)", s, p, f, k,
									got[s][w], math.Float64frombits(got[s][w]), want[s][w], math.Float64frombits(want[s][w]))
							}
						}
					}
					if res.Rebuilds != iters || oracle.Rebuilds != iters {
						t.Fatalf("%d rebuilds, the skin-list walk %d, want %d", res.Rebuilds, oracle.Rebuilds, iters)
					}
					if res.ViewSteps != inj.views {
						t.Fatalf("the view served %d of %d steps, want %d", res.ViewSteps, iters, inj.views)
					}
					if oracle.ViewSteps != 0 {
						t.Fatalf("the skin-list walk took the view on %d steps", oracle.ViewSteps)
					}
				})
			}
		}
	}
}
