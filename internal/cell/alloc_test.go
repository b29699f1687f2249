package cell

import (
	"testing"

	"hybriddem/internal/geom"
	"hybriddem/internal/raceflag"
)

// TestWarmRebuildZeroAlloc gates the tentpole property at the cell
// layer: once the grid scratch and the list storage have grown to their
// steady-state sizes, a full bin + link-list rebuild performs no
// allocation at all — into a caller's ListBuffer, across a pool, with
// one thread (where the parallel entry point builds serially into the
// grid's own storage), on the degenerate all-pairs box, and with a halo
// to gather and split off.
func TestWarmRebuildZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	box := geom.NewBox(2, 1.0, geom.Periodic)
	pos := randomPositions(300, 2, box, 42)
	n := pos.Len()
	cases := []struct {
		name  string
		rc    float64
		nCore int
		pool  Pool // nil: Bin + BuildLinksInto
	}{
		{"serial", 0.1, n, nil},
		{"serial-halo", 0.1, 2 * n / 3, nil},
		{"serial-degenerate", 0.4, n, nil},
		{"parallel-T1", 0.1, n, stepPool{1}},
		{"parallel-T2", 0.1, n, stepPool{2}},
		{"parallel-T2-halo", 0.1, 2 * n / 3, stepPool{2}},
		{"parallel-T2-degenerate", 0.4, n, stepPool{2}},
	}
	for _, tc := range cases {
		g := NewGrid(2, geom.Vec{}, box.Len, tc.rc, true)
		var buf ListBuffer
		rebuild := func() {
			if tc.pool == nil {
				g.Bin(&pos, n, nil)
				g.BuildLinksInto(&buf, &pos, n, tc.nCore, tc.rc*tc.rc, box, nil)
			} else {
				g.BinParallel(&pos, n, tc.pool, nil)
				g.BuildLinksParallel(&pos, n, tc.nCore, tc.rc*tc.rc, box, tc.pool, nil)
			}
		}
		for i := 0; i < 3; i++ {
			rebuild()
		}
		if avg := testing.AllocsPerRun(10, rebuild); avg != 0 {
			t.Errorf("%s: warm rebuild allocates %g times per run, want 0", tc.name, avg)
		}
	}
}
