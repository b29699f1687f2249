package verify

import (
	"errors"
	"testing"

	"hybriddem/internal/checkpoint"
	"hybriddem/internal/core"
	"hybriddem/internal/geom"
	"hybriddem/internal/shm"
)

// cancelConfig is a deliberately lively system: enough velocity and a
// tight cutoff so the link list rebuilds every handful of steps, which
// is where latched Stop requests are honoured.
func cancelConfig(d, n int) core.Config {
	cfg := core.Default(d, n)
	cfg.Seed = 17
	cfg.InitVel = 4
	cfg.RCFactor = 1.2
	cfg.Warmup = 1
	return cfg
}

// captureUntilCanceled runs cfg with a Stop hook that latches once
// reqAt steps have been recorded, returning the partial trajectory and
// result. The run is expected to end in core.ErrCanceled at the first
// rebuild boundary after the request.
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
	if res == nil {
		t.Fatal("canceled run returned no partial result")
	}
	if res.Iters < reqAt || res.Iters >= iters {
		t.Fatalf("canceled run completed %d iterations, want mid-run in [%d, %d)", res.Iters, reqAt, iters)
	}
	if len(tr.Steps) != res.Iters {
		t.Fatalf("probe recorded %d steps, result reports %d", len(tr.Steps), res.Iters)
	}
	if res.Pos == nil {
		t.Fatal("canceled run did not collect its final state")
	}
	tr.Res = res
	return tr, res
}

// TestCancelResumeBitIdentical is the cancellation oracle on a system
// where it can be held against an unbroken run: in every execution
// mode, a run canceled mid-flight via Config.Stop, checkpointed from
// its partial Result, and resumed from that checkpoint replays the
// remaining steps bit-identically to a run that never stopped.
// Cancellation lands on list rebuild boundaries, so the resumed run
// shares the unbroken one's list, reference positions and rebuild
// cadence; what it does not share is the order particles are stored
// in (a resume re-places them by ID), and this bed — 2-D, 200
// particles, sparse — is one where that order never reaches the last
// bit of a force sum. It is not a property of the modes: with
// cancelConfig(3, 1500) the mpi, hybrid and mpism rows differ from the
// unbroken run by 1 ulp at steps 21–52. The guarantee that holds on
// every bed is TestSnapshotContinueEqualsResume's.
func TestCancelResumeBitIdentical(t *testing.T) {
	const total, reqAt = 120, 3
	// The shared modes run with cache reordering off and the distributed
	// ones with it on; on this bed neither choice matters (see above and
	// Config.Stop). The T>1 rows use the
	// Transpose reduction: under the lock methods the order two threads
	// add into a shared particle depends on the host's scheduling, so
	// two runs of the same configuration need not agree bit for bit.
	// The lock methods and the fused kernel are gated at T=1.
	cases := []struct {
		name string
		set  func(*core.Config)
	}{
		{"serial", func(c *core.Config) { c.Mode = core.Serial; c.Reorder = false }},
		{"openmp", func(c *core.Config) {
			c.Mode = core.OpenMP
			c.T = 2
			c.Method = shm.Transpose
			c.Reorder = false
		}},
		{"openmp-selected-t1", func(c *core.Config) { c.Mode = core.OpenMP; c.T = 1; c.Reorder = false }},
		{"mpi", func(c *core.Config) { c.Mode = core.MPI; c.P = 2; c.BlocksPerProc = 2 }},
		{"hybrid", func(c *core.Config) { c.Mode = core.Hybrid; c.P = 2; c.T = 2; c.Method = shm.Transpose }},
		{"hybrid-selected-t1", func(c *core.Config) { c.Mode = core.Hybrid; c.P = 2; c.T = 1 }},
		{"hybrid-fused-t1", func(c *core.Config) {
			c.Mode = core.Hybrid
			c.P, c.T = 2, 1
			c.Method = shm.Atomic
			c.Fused = true
		}},
		{"mpism", func(c *core.Config) { c.Mode = core.MPIsm; c.P = 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := cancelConfig(2, 200)
			tc.set(&base)

			ref, err := Capture(base, total)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}

			// Cancel a few steps in and checkpoint the partial state.
			ckCfg := base
			part1, res := captureUntilCanceled(t, ckCfg, total, reqAt)
			cut := res.Iters
			snap, err := checkpoint.FromResult(&ckCfg, res, cut)
			if err != nil {
				t.Fatalf("checkpoint from canceled result: %v", err)
			}

			// Resume from the checkpoint and run the remainder. The
			// restored state already includes the warm-up, so the
			// resumed leg must not warm up again.
			resumed := base
			if err := snap.Apply(&resumed); err != nil {
				t.Fatalf("apply checkpoint: %v", err)
			}
			resumed.Warmup = 0
			part2, err := Capture(resumed, total-cut)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}

			combined := &Trajectory{
				Box:   ref.Box,
				Steps: append(append([]Step{}, part1.Steps...), part2.Steps...),
			}
			if dv := CompareExact(ref, combined); dv != nil {
				t.Fatalf("canceled (at step %d) + resumed trajectory diverges from the unbroken run: %v", cut, dv)
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

// TestCancelHonoredWithoutRebuilds pins the liveness bound: a system
// too settled to ever rebuild its list still honours a Stop request
// within the documented grace window instead of running to completion.
func TestCancelHonoredWithoutRebuilds(t *testing.T) {
	cfg := core.Default(2, 200) // at rest: nothing moves far enough to rebuild
	cfg.Seed = 17
	cfg.Warmup = 0
	cfg.CollectState = true
	cfg.Stop = func() bool { return true }
	res, err := core.Run(cfg, 2000)
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("run returned %v, want core.ErrCanceled", err)
	}
	if res.Iters >= 2000 {
		t.Fatalf("stop request starved: run completed all %d iterations", res.Iters)
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
