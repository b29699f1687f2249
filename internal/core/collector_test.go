package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"hybriddem/internal/decomp"
	"hybriddem/internal/mp"
	"hybriddem/internal/raceflag"
)

// collectorWorld runs body on every rank of a small moving bed, P=4
// with two blocks each, built and rebuilt once.
func collectorWorld(t *testing.T, body func(r *rankSim, l *decomp.Layout)) {
	t.Helper()
	cfg := Default(2, 3000)
	cfg.Mode, cfg.P, cfg.BlocksPerProc, cfg.InitVel = MPI, 4, 2, 5
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	l, err := decomp.NewLayout(cfg.Box(), cfg.RC(), cfg.P, cfg.BlocksPerProc)
	if err != nil {
		t.Fatal(err)
	}
	mp.Run(cfg.P, mp.ZeroNetwork{}, func(c *mp.Comm) {
		r := newRankSim(&cfg, c, l)
		defer r.close()
		r.dm.FillClustered(cfg.N, cfg.Seed, cfg.InitVel, cfg.FillHeight)
		r.rebuild()
		body(r, l)
	})
}

// TestCollectorConcurrentOffers: four ranks offer their blocks to one
// collector at the same moment, epoch after epoch, copying outside its
// lock into buffers it recycles. Every epoch must promote complete and
// hold, block for block, what the ranks held when they offered it —
// and the race detector must see nothing (CI runs this package under
// -race).
func TestCollectorConcurrentOffers(t *testing.T) {
	var sc *snapCollector
	collectorWorld(t, func(r *rankSim, l *decomp.Layout) {
		c := r.c
		if c.Rank() == 0 {
			sc = newSnapCollector(l.B, 1)
		}
		c.Barrier()
		for epoch := 1; epoch <= 6; epoch++ {
			r.step()
			r.rebuild() // migration reshuffles the blocks between epochs
			c.Barrier()
			sc.offer(epoch, r.dm)
			c.Barrier() // every rank has offered: the epoch is stable
			st := sc.snapshot()
			if st == nil || st.iter != epoch {
				t.Errorf("rank %d: epoch %d did not promote (stable: %+v)", c.Rank(), epoch, st)
				return
			}
			for _, b := range r.dm.Blocks {
				snap := &st.blocks[b.ID]
				if len(snap.ids) != b.NCore {
					t.Errorf("epoch %d block %d: %d ids kept for %d core particles", epoch, b.ID, len(snap.ids), b.NCore)
					continue
				}
				for i, id := range snap.ids {
					if id != b.PS.ID[i] || snap.pos.At(i, 2) != b.PS.PosAt(i) || snap.vel.At(i, 2) != b.PS.VelAt(i) {
						t.Errorf("epoch %d block %d slot %d: kept (%d %v %v), store (%d %v %v)", epoch, b.ID, i,
							id, snap.pos.At(i, 2), snap.vel.At(i, 2), b.PS.ID[i], b.PS.PosAt(i), b.PS.VelAt(i))
						break
					}
				}
			}
			c.Barrier() // nobody opens the next epoch while another still reads this one
		}
	})
}

// TestCollectorSparseCadenceAndReset: only every k-th boundary is kept,
// an epoch that never completes never becomes the rollback point, and a
// reset restarts the cadence without touching the stable snapshot.
func TestCollectorSparseCadenceAndReset(t *testing.T) {
	collectorWorld(t, func(r *rankSim, l *decomp.Layout) {
		if r.c.Rank() != 0 {
			return
		}
		// One rank's blocks are a quarter of an epoch.
		sc := newSnapCollector(l.B, 1)
		sc.offer(1, r.dm)
		if sc.snapshot() != nil {
			t.Error("an epoch with a quarter of its blocks became stable")
		}
		sc.reset()
		sc.offer(1, r.dm) // the retry offers the same epoch again
		sc.offer(1, r.dm) // a duplicate offer adds nothing
		if sc.snapshot() != nil {
			t.Error("the same blocks offered three times completed an epoch")
		}
		if sc.cur == nil || sc.cur.filled != len(r.dm.Blocks) {
			t.Errorf("after a reset and a duplicate the epoch counts %d blocks, want %d", sc.cur.filled, len(r.dm.Blocks))
		}
	})
	sc := newSnapCollector(0, 3) // no blocks needed: every taken epoch completes at once
	dm := &decomp.Domain{}
	var kept []int
	for epoch := 10; epoch < 20; epoch++ {
		sc.offer(epoch, dm)
		if st := sc.snapshot(); st != nil && (len(kept) == 0 || kept[len(kept)-1] != st.iter) {
			kept = append(kept, st.iter)
		}
	}
	if want := []int{10, 13, 16, 19}; len(kept) != len(want) || kept[0] != want[0] || kept[3] != want[3] {
		t.Errorf("every third boundary from 10: kept %v, want %v", kept, want)
	}
	sc.reset()
	sc.offer(20, dm) // the first boundary after a reset is always taken
	if st := sc.snapshot(); st == nil || st.iter != 20 {
		t.Errorf("first boundary after reset not taken: %+v", st)
	}
}

// TestCollectorWarmOfferAllocation: an epoch is copied into the buffer
// the previous promotion displaced, so once two epochs exist an offer
// allocates nothing that grows with the particle count.
func TestCollectorWarmOfferAllocation(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var sc *snapCollector
	var grew uint64
	collectorWorld(t, func(r *rankSim, l *decomp.Layout) {
		c := r.c
		if c.Rank() == 0 {
			sc = newSnapCollector(l.B, 1)
		}
		c.Barrier()
		epoch := 0
		offer := func() {
			epoch++
			sc.offer(epoch, r.dm)
			c.Barrier()
		}
		offer() // the first two epochs build the two buffers,
		offer()
		offer() // the third proves the swap
		var m0, m1 runtime.MemStats
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m0)
		}
		c.Barrier()
		for i := 0; i < 4; i++ {
			offer()
		}
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m1)
			grew = (m1.TotalAlloc - m0.TotalAlloc) / 4
		}
		c.Barrier()
	})
	// One epoch holds 2·D floats and an id per particle: 36 bytes each.
	if perEpoch := uint64(3000 * (2*2*8 + 4)); grew >= perEpoch/8 {
		t.Errorf("a warm epoch of offers allocates %d bytes; the epoch holds %d", grew, perEpoch)
	}
}
