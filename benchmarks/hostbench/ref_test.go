package main

import (
	"testing"
	"time"

	"hybriddem/internal/core"
)

// The per-layer shares are only worth reading if the reference loops
// compute what core.Run computes. On a small moving bed that rebuilds
// its lists, the serial, mpi and mpism reference loops must end on the
// same energy bits as core.Run in the same mode (synchronous exchange,
// the one the reference loop uses). The threaded modes sum locked
// updates in whatever order the threads arrive, so they have no bits to
// compare; they share every line of these loops but the kernels.
func TestReferenceLoopsMatchCore(t *testing.T) {
	const iters = 40
	b := bed{D: 2, N: 2000, Vel: 12, BPP: 2}
	for _, name := range []string{"serial", "mpi", "mpism"} {
		rc := configByName(name)
		cfg := b.config(rc, 5)
		cfg.Overlap = false
		want, err := core.Run(cfg, iters)
		if err != nil {
			t.Fatal(err)
		}
		if want.Rebuilds < 2 {
			t.Fatalf("%s: the bed rebuilt %d times in %d steps; the test needs a moving bed", name, want.Rebuilds, iters)
		}

		w := &workload{Name: "test", Bed: b, Iters: iters}
		recs := make([]*recorder, rc.P)
		for rank := range recs {
			recs[rank] = newRecorder(w.Name, name, rank, time.Now(), spanBudget(w, rc), true)
		}
		var got *refResult
		if rc.distributed() {
			got, err = runDistRef(cfg, iters, recs)
		} else {
			_, got, err = runSharedRef(cfg, iters, recs[0])
		}
		if err != nil {
			t.Fatal(err)
		}
		if got.Epot != want.Epot || got.Ekin != want.Ekin {
			t.Errorf("%s: reference loop ends on (%.17g, %.17g), core.Run on (%.17g, %.17g)",
				name, got.Epot, got.Ekin, want.Epot, want.Ekin)
		}
		// Iteration 0 is outside the steady window, so a rebuild there
		// is the only one the two counts may differ by.
		if d := want.Rebuilds - got.SteadyRebuilds; d < 0 || d > 1 {
			t.Errorf("%s: %d rebuilds in the reference loop's steady window, %d in core.Run's %d iterations",
				name, got.SteadyRebuilds, want.Rebuilds, iters)
		}
		for _, r := range recs {
			if r.Dropped > 0 || len(r.open) != 0 {
				t.Errorf("%s rank %d: %d spans dropped, %d left open", name, r.Rank, r.Dropped, len(r.open))
			}
			if n := r.aggregate(anyIter)["step"].N; n != iters+warmup {
				t.Errorf("%s rank %d: %d step spans, want %d", name, r.Rank, n, iters+warmup)
			}
		}
	}
}
