package verify

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"hybriddem/internal/checkpoint"
	"hybriddem/internal/core"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/shm"
)

// cancelConfig is a deliberately lively system: enough velocity and a
// tight cutoff that the link list rebuilds every handful of steps, so
// cuts land both on rebuild boundaries and between them.
func cancelConfig(d, n int) core.Config {
	cfg := core.Default(d, n)
	cfg.Seed = 17
	cfg.InitVel = 4
	cfg.RCFactor = 1.2
	cfg.Warmup = 1
	return cfg
}

// denseBed is cancelConfig(d, n) settling under gravity into the
// bottom half of the box: dense enough that the order forces are summed
// in reaches the last bit within a few steps, which is where a resume
// that stored its particles in any other order than the run it
// continues shows up.
func denseBed(d, n int) core.Config {
	cfg := cancelConfig(d, n)
	cfg.FillHeight = 0.5
	cfg.Gravity = -20
	return cfg
}

type resumeMode struct {
	name string
	set  func(*core.Config)
}

// resumeModes are the five execution modes with cache reordering on,
// as the resume guarantee is stated, followed by the variants a resume
// exercises in ways of their own: a rebalancing epoch — LPT, and ORB on
// three ranks — at the rebuild that opens the resumed run, the fused
// kernel, and the lock update methods. The thread rows at T=2 use the
// Transpose reduction: under the lock methods the order two threads add
// into a shared particle depends on the host's scheduling, so two runs
// of the same configuration need not agree bit for bit; the lock
// methods and the fused kernel run at T=1.
var resumeModes = []resumeMode{
	{"serial", func(c *core.Config) { c.Mode = core.Serial }},
	{"openmp", func(c *core.Config) { c.Mode = core.OpenMP; c.T = 2; c.Method = shm.Transpose }},
	{"mpi", func(c *core.Config) { c.Mode = core.MPI; c.P = 2; c.BlocksPerProc = 2 }},
	{"hybrid", func(c *core.Config) { c.Mode = core.Hybrid; c.P = 2; c.T = 2; c.Method = shm.Transpose }},
	{"mpism", func(c *core.Config) { c.Mode = core.MPIsm; c.P = 2 }},
	{"mpi-lpt", func(c *core.Config) {
		c.Mode = core.MPI
		c.P, c.BlocksPerProc = 2, 4
		c.Rebalance = core.RebalanceLPT
	}},
	{"mpi-p3-orb", func(c *core.Config) {
		c.Mode = core.MPI
		c.P, c.BlocksPerProc = 3, 4
		c.Rebalance = core.RebalanceORB
	}},
	{"openmp-selected-t1", func(c *core.Config) { c.Mode = core.OpenMP; c.T = 1 }},
	{"hybrid-selected-t1", func(c *core.Config) { c.Mode = core.Hybrid; c.P = 2; c.T = 1 }},
	{"hybrid-fused-t1", func(c *core.Config) {
		c.Mode = core.Hybrid
		c.P, c.T = 2, 1
		c.Method = shm.Atomic
		c.Fused = true
	}},
}

// captureUntilCanceled runs cfg with a Stop hook that fires once reqAt
// steps have been recorded, returning the partial trajectory and
// result. The run must end in core.ErrCanceled after exactly reqAt
// steps: the request is honoured at the step it is seen.
func captureUntilCanceled(t *testing.T, cfg core.Config, iters, reqAt int) (*Trajectory, *core.Result) {
	t.Helper()
	tr := &Trajectory{Box: cfg.Box()}
	cfg.CollectState = true
	cfg.Probe = func(iter int, pos, vel []geom.Vec) {
		tr.Steps = append(tr.Steps, Step{Pos: pos, Vel: vel})
	}
	cfg.Stop = func() bool { return len(tr.Steps) >= reqAt }
	res, err := core.Run(cfg, iters)
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("run with a firing Stop hook returned %v, want core.ErrCanceled", err)
	}
	if res == nil || res.Pos == nil || res.Arrangement == nil {
		t.Fatal("canceled run did not collect its final state")
	}
	if res.Iters != reqAt || len(tr.Steps) != reqAt {
		t.Fatalf("canceled run completed %d iterations (probe saw %d), want the %d before the request", res.Iters, len(tr.Steps), reqAt)
	}
	tr.Res = res
	return tr, res
}

// resumeFrom checkpoints a canceled run's result through a file, loads
// it back and runs the remaining iterations from it.
func resumeFrom(t *testing.T, base core.Config, res *core.Result, iters int) *Trajectory {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cut.ck")
	snap, err := checkpoint.FromResult(&base, res, res.Iters)
	if err != nil {
		t.Fatalf("checkpoint from canceled result: %v", err)
	}
	if err := checkpoint.SaveFile(path, snap); err != nil {
		t.Fatal(err)
	}
	back, err := checkpoint.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The restored state already includes the warm-up, so the resumed
	// leg must not warm up again.
	resumed := base
	if err := back.Apply(&resumed); err != nil {
		t.Fatalf("apply checkpoint: %v", err)
	}
	resumed.Warmup = 0
	tr, err := Capture(resumed, iters)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	return tr
}

// crossesView fails the test unless the run's force passes walked the
// contact-range view on some measured steps and the skin list on
// others, so that cuts land in both states and resumes cross both
// transitions: a view pruned at a rebuild, and one expired by the
// displacement since. A bonded run must never walk it; a fused run
// walks it like every other unbonded run.
func crossesView(t *testing.T, cfg core.Config, res *core.Result) {
	t.Helper()
	if cfg.Spring.Bonds != nil {
		if res.ViewSteps != 0 {
			t.Fatalf("a bonded run walked the view on %d of %d steps", res.ViewSteps, res.Iters)
		}
		return
	}
	if res.ViewSteps == 0 || res.ViewSteps == res.Iters {
		t.Fatalf("the view served %d of %d steps: the bed does not cross both states", res.ViewSteps, res.Iters)
	}
}

// TestFusedViewEqualsSkinList: the fused hybrid loop, one updater over
// all of a rank's blocks, walks the blocks' contact-range views on some
// steps and their skin lists on others, on the synchronous and the
// overlapped exchange, and lands on the bits of the same run walking
// the skin lists on every step — an empty bond table sends the pair
// kernel down its generic path, which computes the same bits and never
// takes a view.
func TestFusedViewEqualsSkinList(t *testing.T) {
	const iters = 28
	for _, d := range []int{2, 3} {
		for _, m := range []shm.Method{shm.Atomic, shm.SelectedAtomic} {
			for _, overlap := range []bool{true, false} {
				t.Run(fmt.Sprintf("d%d/%v/overlap=%v", d, m, overlap), func(t *testing.T) {
					cfg := denseBed(d, 1500)
					cfg.Mode, cfg.P, cfg.T, cfg.BlocksPerProc = core.Hybrid, 2, 1, 4
					cfg.Method, cfg.Fused, cfg.Overlap = m, true, overlap
					got, err := Capture(cfg, iters)
					if err != nil {
						t.Fatal(err)
					}
					crossesView(t, cfg, got.Res)
					skin := cfg
					skin.Spring.Bonds = force.NewBondTable(cfg.N, 1, cfg.Spring.K, 0)
					want, err := Capture(skin, iters)
					if err != nil {
						t.Fatal(err)
					}
					if want.Res.ViewSteps != 0 {
						t.Fatalf("the skin-list walk took the view on %d steps", want.Res.ViewSteps)
					}
					if dv := CompareExact(want, got); dv != nil {
						t.Fatalf("fused run walking views: %v", dv)
					}
				})
			}
		}
	}
}

// TestCancelResumeEveryStep enumerates the resume guarantee instead of
// sampling it: in all five modes with cache reordering on, and their
// rebalancing, fused and lock-method variants, on a sparse 2-D bed, a
// dense settling bed in 2-D and 3-D and a bed of damped bonded grains,
// a run canceled after every step k in [1, 40], checkpointed through a
// file and resumed replays the remaining steps on the bits of a run
// that never stopped. Every unbonded run walks the contact-range view
// on some steps and the skin list on others.
// -short keeps a few cuts.
func TestCancelResumeEveryStep(t *testing.T) {
	const total, lastCut = 48, 40
	cuts := make([]int, 0, lastCut)
	for k := 1; k <= lastCut; k++ {
		if !testing.Short() || k == 1 || k == 2 || k%13 == 0 {
			cuts = append(cuts, k)
		}
	}
	grains, err := Scenario(BondedGrains, 2, 300, 17)
	if err != nil {
		t.Fatal(err)
	}
	grains.Warmup = 1
	beds := []struct {
		name string
		cfg  core.Config
	}{
		{"sparse-2d", cancelConfig(2, 200)},
		{"dense-2d", denseBed(2, 1500)},
		{"dense-3d", denseBed(3, 1500)},
		{"grains-2d", grains},
	}
	for _, bed := range beds {
		for _, mode := range resumeModes {
			t.Run(bed.name+"/"+mode.name, func(t *testing.T) {
				base := bed.cfg
				mode.set(&base)
				ref, err := Capture(base, total)
				if err != nil {
					t.Fatalf("reference run: %v", err)
				}
				crossesView(t, base, ref.Res)
				for _, k := range cuts {
					part1, res := captureUntilCanceled(t, base, total, k)
					part2 := resumeFrom(t, base, res, total-k)
					combined := &Trajectory{Steps: append(append([]Step{}, part1.Steps...), part2.Steps...)}
					if dv := CompareExact(ref, combined); dv != nil {
						t.Fatalf("canceled after step %d and resumed: %v", k, dv)
					}
				}
			})
		}
	}
}

// TestCancelWithinOneStepOnSettledBed: a bed at rest never rebuilds its
// list, and a cancel request still stops it after the step that sees
// the request — after 300 steps as after one — and the resume continues
// on the unbroken run's bits. (A request used to wait for a rebuild,
// and on a bed like this one give up exactness after 256 steps.)
func TestCancelWithinOneStepOnSettledBed(t *testing.T) {
	const total = 310
	for _, mode := range resumeModes {
		t.Run(mode.name, func(t *testing.T) {
			base := core.Default(3, 2000)
			base.Warmup = 0
			mode.set(&base)
			ref, err := Capture(base, total)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Res.Rebuilds != 0 {
				t.Fatalf("the settled bed rebuilt %d times", ref.Res.Rebuilds)
			}
			for _, k := range []int{1, 300} {
				part1, res := captureUntilCanceled(t, base, total, k)
				part2 := resumeFrom(t, base, res, total-k)
				combined := &Trajectory{Steps: append(append([]Step{}, part1.Steps...), part2.Steps...)}
				if dv := CompareExact(ref, combined); dv != nil {
					t.Fatalf("canceled after step %d and resumed: %v", k, dv)
				}
			}
		})
	}
}

// TestCancelDuringWarmupWaits pins the contract that warm-up is not
// interruptible: a Stop hook already true at launch still lets the
// warm-up finish and at least one measured step complete, keeping the
// checkpoint semantics (measured iterations only) intact.
func TestCancelDuringWarmupWaits(t *testing.T) {
	cfg := cancelConfig(2, 200)
	cfg.Warmup = 2
	cfg.CollectState = true
	cfg.Stop = func() bool { return true }
	res, err := core.Run(cfg, 120)
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("run returned %v, want core.ErrCanceled", err)
	}
	if res.Iters < 1 || res.Iters >= 120 {
		t.Fatalf("completed %d measured iterations, want at least 1 (stop polls only after measured steps) and fewer than requested", res.Iters)
	}
}

// TestStopHookNotFiringIsFree checks that a Stop hook that never fires
// leaves the run's outcome untouched: same trajectory, clean error.
func TestStopHookNotFiringIsFree(t *testing.T) {
	base := testScenario(t, Uniform, 2, 200, 17)
	ref, err := Capture(base, 5)
	if err != nil {
		t.Fatal(err)
	}
	hooked := base
	hooked.Stop = func() bool { return false }
	got, err := Capture(hooked, 5)
	if err != nil {
		t.Fatal(err)
	}
	if dv := CompareExact(ref, got); dv != nil {
		t.Fatalf("an idle Stop hook changed the trajectory: %v", dv)
	}
}
