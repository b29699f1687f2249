package verify

import (
	"testing"

	"hybriddem/internal/cell"
	"hybriddem/internal/core"
	"hybriddem/internal/decomp"
	"hybriddem/internal/geom"
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
