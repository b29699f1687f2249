package verify

import (
	"fmt"
	"testing"

	"hybriddem/internal/checkpoint"
	"hybriddem/internal/core"
	"hybriddem/internal/geom"
	"hybriddem/internal/shm"
)

// probeInto makes cfg record every measured step into a fresh
// trajectory.
func probeInto(cfg *core.Config) *Trajectory {
	tr := &Trajectory{Box: cfg.Box()}
	cfg.CollectState = true
	cfg.Probe = func(iter int, pos, vel []geom.Vec) {
		tr.Steps = append(tr.Steps, Step{Pos: pos, Vel: vel})
	}
	return tr
}

// TestSnapshotContinueEqualsResume is the equivalence the live session
// rests on: after Snapshot, a session that keeps its ranks, teams and
// stores and merely returns them to particle-ID order continues on
// exactly the bits of a session opened from that snapshot's checkpoint
// — tear-down, gather to rank 0 and re-placement of all N particles
// buy nothing. Every mode, cache reordering at its default, on a dense
// settling bed where the order forces are summed in shows up in the
// last bit (3-D at this size is where skipping the ID-order step makes
// the distributed rows diverge within a few steps), with a boundary
// every few steps so canonicalised states are themselves canonicalised
// again.
func TestSnapshotContinueEqualsResume(t *testing.T) {
	const chunk, chunks = 4, 5
	cases := []struct {
		name string
		set  func(*core.Config)
	}{
		{"serial", func(c *core.Config) { c.Mode = core.Serial }},
		{"openmp", func(c *core.Config) { c.Mode = core.OpenMP; c.T = 2; c.Method = shm.Transpose }},
		{"openmp-selected-t1", func(c *core.Config) { c.Mode = core.OpenMP; c.T = 1 }},
		{"mpi", func(c *core.Config) { c.Mode = core.MPI; c.P = 2; c.BlocksPerProc = 2 }},
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
	for _, d := range []int{2, 3} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s-d%d", tc.name, d), func(t *testing.T) {
				base := cancelConfig(d, 1500)
				base.FillHeight = 0.5
				base.Gravity = -20
				tc.set(&base)

				liveCfg := base
				live := probeInto(&liveCfg)
				sim, err := core.Open(liveCfg)
				if err != nil {
					t.Fatal(err)
				}
				defer sim.Close()
				if err := sim.Advance(chunk); err != nil {
					t.Fatal(err)
				}
				for k := 1; k < chunks; k++ {
					ck, err := checkpoint.FromResult(&liveCfg, sim.Snapshot(), k*chunk)
					if err != nil {
						t.Fatal(err)
					}
					if err := sim.Advance(chunk); err != nil {
						t.Fatal(err)
					}

					resumedCfg := base
					if err := ck.Apply(&resumedCfg); err != nil {
						t.Fatal(err)
					}
					resumedCfg.Warmup = 0
					resumed, err := Capture(resumedCfg, chunk)
					if err != nil {
						t.Fatalf("resume at %d: %v", k*chunk, err)
					}
					cont := &Trajectory{Box: live.Box, Steps: live.Steps[k*chunk:]}
					if dv := CompareExact(resumed, cont); dv != nil {
						t.Fatalf("continuing in place after the snapshot at %d diverges from resuming its checkpoint: %v", k*chunk, dv)
					}
				}
			})
		}
	}
}
