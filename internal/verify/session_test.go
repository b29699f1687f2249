package verify

import (
	"fmt"
	"io"
	"testing"

	"hybriddem/internal/checkpoint"
	"hybriddem/internal/core"
	"hybriddem/internal/geom"
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

// TestChunkedEqualsUnbroken: a session advanced through AdvanceTo with
// a checkpoint written every 1, 2 or 7 steps walks the trajectory of
// the same session advanced in one piece, bit for bit and step by step,
// in all five modes with cache reordering on and their variants, on the
// dense settling bed in 2-D and 3-D: a durable boundary gathers the
// state and writes it down, and changes nothing about the run. Every
// run walks the contact-range view on some steps and the skin list on
// others.
func TestChunkedEqualsUnbroken(t *testing.T) {
	const total = 28
	for _, d := range []int{2, 3} {
		for _, mode := range resumeModes {
			t.Run(fmt.Sprintf("%s-d%d", mode.name, d), func(t *testing.T) {
				base := denseBed(d, 1500)
				mode.set(&base)
				run := func(every int) *Trajectory {
					t.Helper()
					cfg := base
					tr := probeInto(&cfg)
					sim, err := core.Open(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer sim.Close()
					saves := 0
					_, err = sim.AdvanceTo(0, total, every, func(res *core.Result, done int) error {
						saves++
						snap, err := checkpoint.FromResult(&cfg, res, done)
						if err != nil {
							return err
						}
						return checkpoint.Save(io.Discard, snap)
					})
					if err != nil {
						t.Fatal(err)
					}
					if want := (total + max(every, 1) - 1) / max(every, 1); every > 0 && saves != want {
						t.Fatalf("every %d: %d saves, want %d", every, saves, want)
					}
					crossesView(t, cfg, sim.Result())
					return tr
				}
				unbroken := run(0)
				for _, every := range []int{1, 2, 7} {
					if dv := CompareExact(unbroken, run(every)); dv != nil {
						t.Fatalf("chunked every %d steps: %v", every, dv)
					}
				}
			})
		}
	}
}
