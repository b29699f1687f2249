package verify

import (
	"flag"
	"fmt"
	"path/filepath"
	"testing"

	"hybriddem/internal/core"
	"hybriddem/internal/shm"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the seed golden trajectories from the current code (only valid on a bit-exact baseline)")

// soaGoldenMode is one execution shape replayed against the seed
// goldens. Only deterministic shapes own a golden file: serial, mpi,
// and the thread modes under the Transpose reduction, whose merge order
// is a function of the word index alone. The lock methods (Atomic,
// SelectedAtomic, and the fused kernel, which supports nothing else)
// add into a shared particle in the order threads arrive, and
// floating-point addition is not associative, so at T>1 their bits
// depend on the host's scheduling. They stay bit-gated at T=1 — where
// one thread walks the list in link order and must land on the serial
// (openmp) or mpi (hybrid, same decomposition) golden exactly — and
// keep a CompareApprox row at T>1 against the same golden.
type soaGoldenMode struct {
	name   string
	golden string // mode name of the golden file compared against; "" = own
	approx bool   // arrival-order dependent: CompareApprox within soaLockTol
	mutate func(*core.Config)
}

func openmpMode(t int, m shm.Method) func(*core.Config) {
	return func(c *core.Config) {
		c.Mode = core.OpenMP
		c.T = t
		c.Method = m
	}
}

func hybridMode(t int, m shm.Method, fused bool) func(*core.Config) {
	return func(c *core.Config) {
		c.Mode = core.Hybrid
		c.P, c.T = 2, t
		c.BlocksPerProc = 2
		c.Method = m
		c.Fused = fused
	}
}

var soaGoldenModes = []soaGoldenMode{
	{name: "serial", mutate: func(c *core.Config) {}},
	{name: "openmp", mutate: openmpMode(3, shm.Transpose)},
	{name: "mpi", mutate: func(c *core.Config) {
		c.Mode = core.MPI
		c.P = 2
		c.BlocksPerProc = 2
	}},
	{name: "hybrid", mutate: hybridMode(2, shm.Transpose, false)},

	{name: "openmp-atomic-t1", golden: "serial", mutate: openmpMode(1, shm.Atomic)},
	{name: "openmp-selected-t1", golden: "serial", mutate: openmpMode(1, shm.SelectedAtomic)},
	{name: "hybrid-atomic-t1", golden: "mpi", mutate: hybridMode(1, shm.Atomic, false)},
	{name: "hybrid-selected-t1", golden: "mpi", mutate: hybridMode(1, shm.SelectedAtomic, false)},
	{name: "hybrid-fused-t1", golden: "mpi", mutate: hybridMode(1, shm.Atomic, true)},
	{name: "hybrid-fused-selected-t1", golden: "mpi", mutate: hybridMode(1, shm.SelectedAtomic, true)},

	{name: "openmp-selected-t3", golden: "serial", approx: true, mutate: openmpMode(3, shm.SelectedAtomic)},
	{name: "hybrid-selected-t2", golden: "mpi", approx: true, mutate: hybridMode(2, shm.SelectedAtomic, false)},
	{name: "hybrid-fused-t2", golden: "mpi", approx: true, mutate: hybridMode(2, shm.Atomic, true)},
}

// soaLockTol bounds the T>1 lock rows: reassociating one particle's
// force sum moves it by an ulp or two, and fourteen steps of contact
// dynamics amplify that by a few orders of magnitude, nowhere near
// 1e-9 of these O(1) positions and velocities.
var soaLockTol = ApproxTol{Pos: FieldTol{Abs: 1e-9}, Vel: FieldTol{Abs: 1e-9}}

// soaGoldenCase pins one scenario family at one dimensionality. The
// time step is raised well above the default so the short captured
// window crosses at least one list rebuild — the goldens must witness
// migration, reordering and halo reconstruction, not just the smooth
// inner loop.
type soaGoldenCase struct {
	kind Kind
	d, n int
}

var soaGoldenCases = []soaGoldenCase{
	// d=3 cases need enough particles that the box still splits into
	// the 4 decomposed blocks without an edge dropping below the
	// cutoff.
	{Uniform, 2, 48},
	{Clustered, 3, 256},
	{BondedGrains, 2, 48},
	{DegenerateGrid, 2, 49},
	{NearBoundary, 3, 256},
}

const soaGoldenIters = 14

func soaGoldenConfig(t *testing.T, c soaGoldenCase) core.Config {
	t.Helper()
	cfg, err := Scenario(c.kind, c.d, c.n, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Faster motion so the 14-step window rebuilds the lists at least
	// once (skin/velocity gives roughly one rebuild per 6 steps).
	cfg.Dt = 1e-3
	return cfg
}

// TestSoABitIdenticalToSeed replays the five seeded scenario families
// through every deterministic execution shape and demands CompareExact
// equality with golden trajectories: serial and mpi captured before
// the structure-of-arrays storage refactor, the Transpose thread rows
// before the thread paths moved onto the shared pair kernel. The T>1
// lock rows are bounded by soaLockTol instead. Any reassociation
// of floating-point arithmetic in the particle store, the link
// builder, the pair kernel, the integrator, the halo exchange or the
// reduction strategies fails this test with the first divergent step,
// particle and component.
//
// Regenerate (only from a known bit-exact baseline!) with:
//
//	go test ./internal/verify -run TestSoABitIdenticalToSeed -update-golden
func TestSoABitIdenticalToSeed(t *testing.T) {
	for _, c := range soaGoldenCases {
		c := c
		for _, m := range soaGoldenModes {
			m := m
			name := fmt.Sprintf("%v-d%d/%s", c.kind, c.d, m.name)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := soaGoldenConfig(t, c)
				m.mutate(&cfg)
				if err := cfg.Validate(); err != nil {
					t.Fatal(err)
				}
				tr, err := Capture(cfg, soaGoldenIters)
				if err != nil {
					t.Fatal(err)
				}
				golden := m.golden
				if golden == "" {
					golden = m.name
				}
				path := filepath.Join("testdata",
					fmt.Sprintf("soa_%v_d%d_%s.golden", c.kind, c.d, golden))
				if *updateGolden {
					if m.golden != "" {
						t.Skipf("compares against the %s golden", m.golden)
					}
					if err := SaveGoldenFile(path, tr); err != nil {
						t.Fatal(err)
					}
					t.Logf("wrote %s (%d steps)", path, len(tr.Steps))
					return
				}
				want, err := LoadGoldenFile(path)
				if err != nil {
					t.Fatalf("%v (regenerate from a bit-exact baseline with -update-golden)", err)
				}
				if m.approx {
					if dv, max := CompareApprox(want.Box, want, tr, soaLockTol); dv != nil {
						t.Fatalf("trajectory left the lock-order bound of the %s golden (max deviation %.3g): %v", golden, max, dv)
					}
					return
				}
				if dv := CompareExact(want, tr); dv != nil {
					t.Fatalf("trajectory diverged from the %s golden: %v", golden, dv)
				}
			})
		}
	}
}

// TestGoldenRoundTrip exercises the golden file format itself:
// save/load is lossless, and a corrupted byte is detected by the
// frame checksum rather than silently decoding.
func TestGoldenRoundTrip(t *testing.T) {
	cfg := soaGoldenConfig(t, soaGoldenCases[0])
	tr, err := Capture(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rt.golden")
	if err := SaveGoldenFile(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGoldenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if dv := CompareExact(tr, got); dv != nil {
		t.Fatalf("round trip not lossless: %v", dv)
	}
}
