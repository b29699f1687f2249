package shm

import (
	"math"
	"math/rand"
	"testing"

	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
)

// sweepSystem is n moving particles with a force on each and the
// reference positions of a list built a few steps ago.
func sweepSystem(seed int64, d, n int, box geom.Box) (*particle.Store, geom.Coords) {
	rng := rand.New(rand.NewSource(seed))
	ps := particle.New(d, n)
	particle.FillUniformVel(ps, n, box, 30, 0, rng)
	ref := ps.SnapshotPos()
	for k := 0; k < d; k++ {
		for i := 0; i < n; i++ {
			ps.Pos[k][i] += 0.01 * (rng.Float64() - 0.5)
			ps.Frc[k][i] = 500 * (rng.Float64() - 0.5)
		}
	}
	return ps, ref
}

// sameState reports the first particle on which two stores differ.
func sameState(t *testing.T, got, want *particle.Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if got.PosAt(i) != want.PosAt(i) || got.VelAt(i) != want.VelAt(i) {
			t.Fatalf("particle %d: (%v, %v), want (%v, %v)", i, got.PosAt(i), got.VelAt(i), want.PosAt(i), want.VelAt(i))
		}
	}
}

// TestSweepParallelIsThreadOrderedSum: across a team the sweep moves
// every particle as one thread would, finds the same maximum, and
// returns as kinetic energy the partial sums of the static chunks added
// in thread order — the same bits on every one of twenty runs, and at
// T=1 the serial sum itself.
func TestSweepParallelIsThreadOrderedSum(t *testing.T) {
	const n, dt = 1000, 1e-3
	box := geom.NewBox(3, 1, geom.Periodic)
	for _, T := range []int{1, 2, 3, 5} {
		start, ref := sweepSystem(int64(T), 3, n, box)

		serial := start.Clone()
		serialE, serialMax := force.Sweep(serial, &ref, 0, n, dt, box, force.WrapGlobal, nil)

		ranges := start.Clone()
		wantE := 0.0
		for th := 0; th < T; th++ {
			lo, hi := chunk(n, T, th)
			e, _ := force.Sweep(ranges, &ref, lo, hi, dt, box, force.WrapGlobal, nil)
			wantE += e
		}
		if T == 1 && wantE != serialE {
			t.Fatalf("T=1: the one partial %.17g is not the serial sum %.17g", wantE, serialE)
		}

		tm := NewTeam(T, Costs{})
		for run := 0; run < 20; run++ {
			got := start.Clone()
			e, m := SweepParallel(tm, got, &ref, n, dt, box, force.WrapGlobal)
			if math.Float64bits(e) != math.Float64bits(wantE) {
				t.Fatalf("T=%d run %d: ekin %.17g, thread-ordered sum of partials %.17g", T, run, e, wantE)
			}
			if m != serialMax {
				t.Fatalf("T=%d run %d: maxDisp2 %.17g, serial %.17g", T, run, m, serialMax)
			}
			sameState(t, got, serial, n)
		}
		if tm.TC.PosUpdates != 20*n {
			t.Errorf("T=%d: %d position updates counted over 20 sweeps of %d", T, tm.TC.PosUpdates, n)
		}
		tm.Close()
	}
}

// TestSweepAllBlocks: over several blocks in one region a thread adds
// its chunk of each block in block order and the master the threads in
// thread order; with one thread that is the block-by-block sum of a
// single-threaded rank. A block without a reference contributes no
// displacement.
func TestSweepAllBlocks(t *testing.T) {
	const dt = 1e-3
	box := geom.NewBox(2, 1, geom.Periodic)
	sizes := []int{130, 7, 64}
	for _, T := range []int{1, 3} {
		var blocks, oracle []*BlockStore
		var refs []geom.Coords
		cores := make([]int, len(sizes))
		for b, n := range sizes {
			ps, ref := sweepSystem(int64(10*T+b), 2, n+5, box) // five halo copies behind the core
			refs = append(refs, ref)
			blocks = append(blocks, &BlockStore{PS: ps, NCore: n, Ref: &refs[b]})
			oracle = append(oracle, &BlockStore{PS: ps.Clone(), NCore: n})
			cores[b] = n
		}
		blocks[1].Ref = nil

		wantE, wantMax := 0.0, 0.0
		for th := 0; th < T; th++ {
			part := 0.0
			for b, blk := range oracle {
				lo, hi := chunk(cores[b], T, th)
				e, m := force.Sweep(blk.PS, blocks[b].Ref, lo, hi, dt, box, force.WrapDeferred, nil)
				part += e
				wantMax = math.Max(wantMax, m)
			}
			wantE += part
		}

		tm := NewTeam(T, Costs{})
		e, m := SweepAllBlocks(tm, blocks, cores, dt, box, force.WrapDeferred)
		tm.Close()
		if math.Float64bits(e) != math.Float64bits(wantE) || m != wantMax {
			t.Fatalf("T=%d: (%.17g, %.17g), want (%.17g, %.17g)", T, e, m, wantE, wantMax)
		}
		for b := range blocks {
			sameState(t, blocks[b].PS, oracle[b].PS, sizes[b]+5)
		}
	}
}
