package core

import (
	"fmt"
	"math"
	"testing"

	"hybriddem/internal/decomp"
	"hybriddem/internal/geom"
	"hybriddem/internal/mp"
)

// modWrap is geom.Box.Wrap as it was when every coordinate went
// through math.Mod, inside the box or not (the flips are not needed
// here).
func modWrap(b geom.Box, p geom.Vec) geom.Vec {
	for i := 0; i < b.D; i++ {
		l, x := b.Len[i], p[i]
		if b.BC == geom.Periodic {
			if x = math.Mod(x, l); x < 0 {
				x += l
			}
			if x >= l {
				x -= l
			}
		} else {
			if x = math.Mod(x, 2*l); x < 0 {
				x += 2 * l
			}
			if x >= l {
				x = 2*l - x
			}
			if x >= l {
				x = math.Nextafter(l, 0)
			}
		}
		p[i] = x
	}
	return p
}

// referenceGather is the gather as it was before it packed component
// streams: every core particle wrapped, Mod and all, and appended,
// position then velocity, to a message that grows as it goes. It is
// TestGatherMatchesReference's oracle.
func referenceGather(r *rankSim) (pos, vel []geom.Vec) {
	const tag = stateGatherTag + 1
	cfg, c := r.cfg, r.c
	box := cfg.Box()
	var f []float64
	var ids []int32
	for _, b := range r.dm.Blocks {
		for i := 0; i < b.NCore; i++ {
			p := modWrap(box, b.PS.PosAt(i))
			v := b.PS.VelAt(i)
			for k := 0; k < cfg.D; k++ {
				f = append(f, p[k])
			}
			for k := 0; k < cfg.D; k++ {
				f = append(f, v[k])
			}
			ids = append(ids, b.PS.ID[i])
		}
	}
	if c.Rank() != 0 {
		c.Send(0, tag, f, ids)
		return nil, nil
	}
	pos = make([]geom.Vec, cfg.N)
	vel = make([]geom.Vec, cfg.N)
	fill := func(f []float64, ids []int32) {
		per := 2 * cfg.D
		for i, id := range ids {
			for k := 0; k < cfg.D; k++ {
				pos[id][k] = f[per*i+k]
				vel[id][k] = f[per*i+cfg.D+k]
			}
		}
	}
	fill(f, ids)
	for src := 1; src < cfg.P; src++ {
		fill(c.Recv(src, tag))
	}
	return pos, vel
}

// TestGatherMatchesReference: the packed gather hands rank 0 the bits
// the per-particle Wrap(PosAt) loop handed it — every dimension,
// boundary, rank count and blocks-per-rank, on a moving bed whose
// deferred wrap has left coordinates outside the box, and with
// coordinates planted where the fold is delicate: several box lengths
// out, a hair below zero (where Mod's result rounds up to the edge),
// exactly on the upper edge, and -0.
func TestGatherMatchesReference(t *testing.T) {
	for _, d := range []int{2, 3} {
		for _, bc := range []geom.Boundary{geom.Periodic, geom.Reflecting} {
			for _, p := range []int{1, 2, 4} {
				for _, bpp := range []int{1, 4} {
					t.Run(fmt.Sprintf("D%d-%v-P%d-BPP%d", d, bc, p, bpp), func(t *testing.T) {
						cfg := Default(d, 1000*d)
						cfg.Mode, cfg.P, cfg.BlocksPerProc, cfg.BC = MPI, p, bpp, bc
						cfg.Seed, cfg.InitVel = int64(7+d), 10
						checkGather(t, cfg)
					})
				}
			}
		}
	}
}

func checkGather(t *testing.T, cfg Config) {
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	l, err := decomp.NewLayout(cfg.Box(), cfg.RC(), cfg.P, cfg.BlocksPerProc)
	if err != nil {
		t.Fatal(err)
	}
	box := cfg.Box()
	outside := func(r *rankSim) float64 {
		n := 0
		for _, b := range r.dm.Blocks {
			for i := 0; i < b.NCore; i++ {
				if !box.Contains(b.PS.PosAt(i)) {
					n++
				}
			}
		}
		return r.c.AllreduceScalar(float64(n), mp.Sum)
	}
	mp.Run(cfg.P, mp.ZeroNetwork{}, func(c *mp.Comm) {
		r := newRankSim(&cfg, c, l)
		defer r.close()
		r.dm.FillClustered(cfg.N, cfg.Seed, cfg.InitVel, cfg.FillHeight)
		r.rebuild()
		// Step until the list is about to go stale: the longer since the
		// last migration, the more coordinates the deferred wrap has
		// left outside the box.
		left := 0.0
		for i := 0; i < 200 && left < 3; i++ {
			r.step()
			left = outside(r)
		}
		if cfg.BC == geom.Periodic && left < 3 {
			t.Errorf("rank %d: %v particles outside the box after 200 steps; the bed does not exercise the deferred wrap", c.Rank(), left)
		}
		if cfg.BC == geom.Reflecting && left != 0 {
			t.Errorf("rank %d: %v particles outside a reflecting box", c.Rank(), left)
		}
		compare := func(when string) {
			got, gotV := r.gather()
			want, wantV := referenceGather(r)
			if c.Rank() != 0 {
				if got != nil || gotV != nil {
					t.Errorf("rank %d received state", c.Rank())
				}
				return
			}
			if len(got) != cfg.N || len(gotV) != cfg.N {
				t.Fatalf("%s: gathered %d positions and %d velocities for N=%d", when, len(got), len(gotV), cfg.N)
			}
			for id := range want {
				for k := 0; k < geom.MaxD; k++ {
					if math.Float64bits(got[id][k]) != math.Float64bits(want[id][k]) ||
						math.Float64bits(gotV[id][k]) != math.Float64bits(wantV[id][k]) {
						t.Fatalf("%s: particle %d component %d: gathered (%.17g, %.17g), reference (%.17g, %.17g)",
							when, id, k, got[id][k], gotV[id][k], want[id][k], wantV[id][k])
					}
				}
			}
		}
		compare("after stepping")
		compare("second call, warm buffers")
		if cfg.BC == geom.Periodic {
			// Plant the delicate coordinates, a different one per slot.
			for _, b := range r.dm.Blocks {
				for i := 0; i < b.NCore; i++ {
					k := i % cfg.D
					edge := box.Len[k]
					b.PS.Pos[k][i] = [...]float64{
						b.PS.Pos[k][i] + 3*edge, b.PS.Pos[k][i] - 2*edge, -1e-18, edge,
						math.Copysign(0, -1), math.Nextafter(edge, 0), -edge, b.PS.Pos[k][i],
					}[i%8]
				}
			}
			compare("planted coordinates")
		}
	})
}

// TestSharedGatherMatchesReference: the shared modes' gather is the
// same scatter over the one store; it hands back what the per-particle
// PosAt/VelAt loop it replaced handed back.
func TestSharedGatherMatchesReference(t *testing.T) {
	for _, mode := range []Mode{Serial, OpenMP} {
		cfg := Default(3, 1500)
		cfg.Mode, cfg.InitVel = mode, 10
		if mode == OpenMP {
			cfg.T = 2
		}
		s, err := newSharedSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			s.step() // long enough to reorder the store
		}
		pos, vel := s.gather()
		for i, id := range s.ps.ID[:cfg.N] {
			if pos[id] != s.ps.PosAt(i) || vel[id] != s.ps.VelAt(i) {
				t.Fatalf("%v: particle %d: gathered (%v, %v), store (%v, %v)", mode, id, pos[id], vel[id], s.ps.PosAt(i), s.ps.VelAt(i))
			}
		}
		s.close()
	}
}
