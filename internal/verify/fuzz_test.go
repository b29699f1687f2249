package verify

import (
	"math"
	"testing"

	"hybriddem/internal/cell"
	"hybriddem/internal/core"
	"hybriddem/internal/decomp"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
	"hybriddem/internal/shm"
)

// The native fuzz targets drive the oracles with generator parameters
// rather than raw byte soup: the fuzzer explores the scenario space
// (family, dimension, size, seed, distribution geometry) and every
// input that builds a valid configuration is checked against an
// independent reference. `go test -fuzz=FuzzX -fuzztime=10s` runs any
// of them; without -fuzz they replay the seed corpus as ordinary tests.

// FuzzLinkList cross-checks the cell-grid link builder against the
// O(n^2) brute-force pair enumeration.
func FuzzLinkList(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(30), int64(1))
	f.Add(uint8(1), uint8(1), uint16(64), int64(2))
	f.Add(uint8(2), uint8(0), uint16(50), int64(3))
	f.Add(uint8(3), uint8(1), uint16(27), int64(4))
	f.Add(uint8(4), uint8(0), uint16(90), int64(5))
	// Periodic boxes of 3 and 4 cells a side, in both dimensions: the
	// grids on which the builder's sweep must still apply the minimum
	// image pair by pair, a wrapped leg or not.
	f.Add(uint8(0), uint8(0), uint16(22), int64(6))  // d=2 n=30: 3 cells
	f.Add(uint8(4), uint8(0), uint16(37), int64(7))  // d=2 n=45: 4 cells
	f.Add(uint8(1), uint8(1), uint16(102), int64(8)) // d=3 n=110: 3 cells
	f.Add(uint8(2), uint8(1), uint16(22), int64(9))  // d=3 n=30 dimers in the doubled box: 4 cells
	f.Fuzz(func(t *testing.T, kindB, dB uint8, nB uint16, seed int64) {
		k := Kinds[int(kindB)%len(Kinds)]
		d := 2 + int(dB)%2
		n := 8 + int(nB)%120
		cfg, err := Scenario(k, d, n, seed)
		if err != nil {
			t.Skip(err)
		}
		box := cfg.Box()
		rc := cfg.RC()
		pos := geom.CoordsFromVecs(cfg.Init.Pos, d)
		g := cell.NewGrid(d, geom.Zero(), box.Len, rc, box.BC == geom.Periodic)
		g.Bin(&pos, cfg.N, nil)
		got := g.BuildLinks(&pos, cfg.N, cfg.N, rc*rc, box, nil)
		want := cell.BruteLinks(cfg.Init.Pos, cfg.N, cfg.N, rc*rc, box)
		gs, dup := cell.PairSet(got.Links)
		if dup != nil {
			t.Fatalf("%v d=%d n=%d seed=%d: duplicate link %v", k, d, n, seed, *dup)
		}
		ws, _ := cell.PairSet(want.Links)
		if len(gs) != len(ws) {
			t.Fatalf("%v d=%d n=%d seed=%d: %d links vs %d brute pairs", k, d, n, seed, len(gs), len(ws))
		}
		for p := range ws {
			if !gs[p] {
				t.Fatalf("%v d=%d n=%d seed=%d: pair %v missing from link list", k, d, n, seed, p)
			}
		}
	})
}

// FuzzHaloExchange distributes a scenario over a fuzzed process/block
// layout, performs the real (goroutine) halo exchange, and checks every
// rank's halos against the globally reconstructed configuration with
// decomp's VerifyHalos oracle.
func FuzzHaloExchange(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(60), uint8(2), uint8(1), int64(1), true)
	f.Add(uint8(1), uint8(0), uint16(80), uint8(2), uint8(2), int64(2), false)
	f.Add(uint8(3), uint8(0), uint16(40), uint8(3), uint8(1), int64(3), true)
	f.Add(uint8(4), uint8(0), uint16(100), uint8(4), uint8(1), int64(4), true)
	f.Add(uint8(2), uint8(1), uint16(70), uint8(2), uint8(1), int64(5), false)
	f.Fuzz(func(t *testing.T, kindB, dB uint8, nB uint16, pB, bppB uint8, seed int64, reorder bool) {
		k := Kinds[int(kindB)%len(Kinds)]
		d := 2 + int(dB)%2
		n := 8 + int(nB)%120
		p := 1 + int(pB)%4
		bpp := 1 + int(bppB)%3
		cfg, err := Scenario(k, d, n, seed)
		if err != nil {
			t.Skip(err)
		}
		if _, err := decomp.NewLayout(cfg.Box(), cfg.RC(), p, bpp); err != nil {
			t.Skip(err) // blocks thinner than the cutoff: invalid layout
		}
		if err := runHaloCheck(cfg, p, bpp, reorder, false); err != nil {
			t.Fatalf("%v d=%d n=%d P=%d bpp=%d seed=%d reorder=%v: %v",
				k, d, n, p, bpp, seed, reorder, err)
		}
	})
}

// FuzzModeEquivalence runs a fuzzed scenario through a shared-memory
// and a message-passing driver and demands trajectory agreement with
// the serial baseline.
func FuzzModeEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(1), int64(1))
	f.Add(uint8(1), uint8(3), int64(2))
	f.Add(uint8(2), uint8(0), int64(3))
	f.Add(uint8(3), uint8(4), int64(4))
	f.Add(uint8(4), uint8(2), int64(5))
	f.Fuzz(func(t *testing.T, kindB, mB uint8, seed int64) {
		k := Kinds[int(kindB)%len(Kinds)]
		m := shm.Methods[int(mB)%len(shm.Methods)]
		cfg, err := Scenario(k, 2, 80, seed)
		if err != nil {
			t.Skip(err)
		}
		const iters = 4
		base, err := Capture(cfg, iters)
		if err != nil {
			t.Skip(err) // the generator built an unrunnable config
		}
		box := cfg.Box()

		omp := cfg
		omp.Mode = core.OpenMP
		omp.T = 2
		omp.Method = m
		tr, err := Capture(omp, iters)
		if err != nil {
			t.Fatalf("%v seed=%d openmp/%v: %v", k, seed, m, err)
		}
		if div, _ := Compare(box, base, tr, 0); div != nil {
			t.Fatalf("%v seed=%d: openmp/%v diverged: %s", k, seed, m, div)
		}

		mpi := cfg
		mpi.Mode = core.MPI
		mpi.P = 2
		mpi.BlocksPerProc = 1
		if _, err := decomp.NewLayout(box, cfg.RC(), mpi.P, mpi.BlocksPerProc); err == nil {
			tr, err := Capture(mpi, iters)
			if err != nil {
				t.Fatalf("%v seed=%d mpi: %v", k, seed, err)
			}
			if div, _ := Compare(box, base, tr, 0); div != nil {
				t.Fatalf("%v seed=%d: mpi diverged: %s", k, seed, div)
			}
		}
	})
}

// modFold is the boundary fold spelled out with an unconditional
// math.Mod per coordinate — what geom.Box.Wrap did before it learned
// to leave the Mod out inside the box. It is FuzzFold's oracle.
func modFold(x, l float64, bc geom.Boundary) (float64, bool) {
	flip := false
	switch bc {
	case geom.Periodic:
		x = math.Mod(x, l)
		if x < 0 {
			x += l
		}
		if x >= l {
			x -= l
		}
	case geom.Reflecting:
		period := 2 * l
		x = math.Mod(x, period)
		if x < 0 {
			x += period
		}
		if x >= l {
			x = period - x
			flip = true
		}
		if x >= l {
			x = math.Nextafter(l, 0)
		}
	}
	return x, flip
}

// FuzzFold drives one particle through force.Sweep — kick, drift and
// geom.Box.Fold, the boundary fold that calls math.Mod only for a
// coordinate outside [0, l) — and checks it, bit for bit, against the
// arithmetic spelled out with modFold, which folds every coordinate
// through Mod: position, velocity (negated after an odd number of
// reflections), kinetic energy and the squared displacement from where
// it started. Box.Fold, Box.Wrap and Box.FoldSlice are held to the
// same oracle on the drifted coordinates directly.
func FuzzFold(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(2), 0.5, 1.0, 0.0, 1.0, 1e-3)
	f.Add(uint8(1), uint8(0), uint8(1), 0.999, 400.0, -3.0, 1.0, 1e-2)      // reflects once
	f.Add(uint8(0), uint8(0), uint8(0), 0.0, -1e-14, 0.0, 0.63, 1e-3)       // a hair below zero: Mod's result rounds to l
	f.Add(uint8(1), uint8(1), uint8(2), 0.3, 5.2e3, 0.0, 0.7, 1e-3)         // several box lengths, odd reflections
	f.Add(uint8(0), uint8(1), uint8(2), 0.62, 30.0, 0.0, 0.63, 1e-3)        // deferred wrap: leaves the box
	f.Add(uint8(0), uint8(0), uint8(1), 0.0, 0.0, 0.0, 2.1, 1e-3)           // at rest on the wall
	f.Add(uint8(1), uint8(0), uint8(0), 1.0, 1e-13, 0.0, 1.0000000001, 1.0) // up against x == l
	f.Fuzz(func(t *testing.T, bcB, modeB, dB uint8, x, v, frc, l, dt float64) {
		for _, a := range []float64{x, v, frc, l, dt} {
			if math.IsNaN(a) || math.IsInf(a, 0) {
				t.Skip("not a number a run can hold")
			}
		}
		if l <= 0 || math.IsInf(3*l, 0) {
			t.Skip("not a box")
		}
		d := 1 + int(dB)%3
		box := geom.Box{D: d, BC: geom.Boundary(bcB % 2)}
		mode := force.WrapMode(modeB % 2)
		ps := particle.New(d, 1)
		var start geom.Vec
		for k := 0; k < d; k++ {
			box.Len[k] = l * float64(k+2) / 2
			start[k] = x + float64(k)*l/4
		}
		ps.Append(start, geom.Vec{v, -v, v / 2}, 0)
		for k := 0; k < d; k++ {
			ps.Frc[k][0] = frc
		}
		ref := ps.SnapshotPos()

		var wantV, drifted geom.Vec
		for k := 0; k < d; k++ {
			wantV[k] = ps.Vel[k][0] + frc*dt
			drifted[k] = start[k] + wantV[k]*dt
		}
		same := func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
		}
		var folded geom.Vec
		var flip [geom.MaxD]bool
		for k := 0; k < d; k++ {
			folded[k], flip[k] = modFold(drifted[k], box.Len[k], box.BC)
			one := []float64{drifted[k]}
			box.FoldSlice(one, k)
			if got, gotFlip := box.Fold(drifted[k], k); !same(got, folded[k]) || gotFlip != flip[k] || !same(one[0], folded[k]) {
				t.Fatalf("%v l=%v: Fold(%.17g) = (%.17g, %v), FoldSlice %.17g, every-coordinate Mod (%.17g, %v)",
					box.BC, box.Len[k], drifted[k], got, gotFlip, one[0], folded[k], flip[k])
			}
		}
		if w, wf := box.Wrap(drifted); wf != flip || !same(w[0], folded[0]) || !same(w[1], folded[1]) || !same(w[2], folded[2]) {
			t.Fatalf("%v: Wrap(%v) = (%v, %v), every-coordinate Mod (%v, %v)", box.BC, drifted, w, wf, folded, flip)
		}
		wantX := drifted
		if mode == force.WrapGlobal || box.BC == geom.Reflecting {
			wantX = folded
			for k := 0; k < d; k++ {
				if flip[k] {
					wantV[k] = -wantV[k]
				}
			}
		}
		wantE := 0.5 * geom.Norm2(wantV, d)
		wantMoved := math.Max(0, box.Dist2(start, wantX)) // a NaN distance is never the maximum

		e, moved := force.Sweep(ps, &ref, 0, 1, dt, box, mode, nil)
		for k := 0; k < d; k++ {
			if !same(ps.Pos[k][0], wantX[k]) || !same(ps.Vel[k][0], wantV[k]) {
				t.Fatalf("%v mode %d component %d of %d: x=%v v=%v f=%v l=%v dt=%v: sweep (%.17g, %.17g), Wrap (%.17g, %.17g)",
					box.BC, mode, k, d, start[k], v, frc, box.Len[k], dt, ps.Pos[k][0], ps.Vel[k][0], wantX[k], wantV[k])
			}
		}
		if !same(e, wantE) || !same(moved, wantMoved) {
			t.Fatalf("%v mode %d d=%d x=%v v=%v f=%v l=%v dt=%v: sweep (ekin %.17g, moved %.17g), want (%.17g, %.17g)",
				box.BC, mode, d, x, v, frc, l, dt, e, moved, wantE, wantMoved)
		}
	})
}
