package core

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"hybriddem/internal/mp"
	"hybriddem/internal/raceflag"
	"hybriddem/internal/shm"
)

// bedConfig is a dense, lively 3-D bed: the order forces are summed in
// shows up in the last bit within a few steps, so a boundary that failed
// to canonicalise (or a rollback that skipped one) cannot pass a bit
// comparison by luck.
func bedConfig(mode Mode) Config {
	cfg := Default(3, 1500)
	cfg.Seed = 17
	cfg.InitVel = 4
	cfg.RCFactor = 1.2
	cfg.Warmup = 1
	cfg.FillHeight = 0.5
	cfg.Gravity = -20
	cfg.Mode = mode
	cfg.CollectState = true
	if mode != Serial {
		cfg.P, cfg.BlocksPerProc = 2, 2
	}
	if mode == Hybrid {
		cfg.T, cfg.Method = 2, shm.Transpose
	}
	return cfg
}

// TestAdvanceToKeepsOneWorld is the structural point of the session: a
// chunked run never tears anything down. Across five snapshot
// boundaries an mpi and a hybrid session each keep the one world, and
// per rank the one domain and the one thread team, they were opened
// with.
func TestAdvanceToKeepsOneWorld(t *testing.T) {
	for _, mode := range []Mode{MPI, Hybrid} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := bedConfig(mode)
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			worlds := map[*world]bool{}
			domains := map[any]bool{}
			teams := map[*shm.Team]bool{}
			boundaries := 0
			_, err = s.AdvanceTo(0, 20, 4, func(*Result, int) error {
				boundaries++
				worlds[s.w] = true
				seen := make([]*rankSim, cfg.P)
				if err := s.run(func(st stepper) { seen[st.rank()] = st.(*rankSim) }); err != nil {
					return err
				}
				for _, r := range seen {
					domains[r.dm] = true
					if r.team != nil {
						teams[r.team] = true
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			wantTeams := 0
			if mode == Hybrid {
				wantTeams = cfg.P
			}
			if boundaries != 5 || len(worlds) != 1 || len(domains) != cfg.P || len(teams) != wantTeams {
				t.Fatalf("%d boundaries saw %d worlds, %d domains, %d teams; want 5 boundaries, 1 world, %d domains, %d teams",
					boundaries, len(worlds), len(domains), len(teams), cfg.P, wantTeams)
			}
		})
	}
}

// TestAdvanceToGrid: boundaries are absolute multiples of the cadence,
// so a resumed session's first chunk is the short one that gets it back
// on the grid; the end of the run is always a boundary; Result counts
// this session's iterations only.
func TestAdvanceToGrid(t *testing.T) {
	for _, tc := range []struct {
		done, total, every int
		want               []int
	}{
		{0, 8, 3, []int{3, 6, 8}},
		{4, 8, 3, []int{6, 8}},
		{6, 9, 3, []int{9}},
		{0, 5, 0, []int{5}},
	} {
		cfg := testConfig(2, 120)
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		done, err := s.AdvanceTo(tc.done, tc.total, tc.every, func(snap *Result, done int) error {
			if snap.Pos == nil {
				t.Errorf("boundary %d: snapshot carries no state", done)
			}
			got = append(got, done)
			return nil
		})
		if err != nil || done != tc.total {
			t.Fatalf("AdvanceTo(%d, %d, %d) = %d, %v", tc.done, tc.total, tc.every, done, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("AdvanceTo(%d, %d, %d) saved at %v, want %v", tc.done, tc.total, tc.every, got, tc.want)
		}
		if res := s.Result(); res.Iters != tc.total-tc.done {
			t.Errorf("Result.Iters = %d after advancing %d→%d", res.Iters, tc.done, tc.total)
		}
		s.Close()
	}
}

// TestAdvanceToHonoursLatchedStopAtBoundary: a bed too settled to
// rebuild never reaches a rebuild boundary and a chunk is shorter than
// the grace, so the latched request is honoured at the next grid
// boundary — the canonical state a chunked run resumes from anyway —
// instead of leaking from chunk to chunk until the run completes.
func TestAdvanceToHonoursLatchedStopAtBoundary(t *testing.T) {
	cfg := Default(2, 200) // at rest
	cfg.CollectState = true
	cfg.Stop = func() bool { return true }
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	saved := 0
	done, err := s.AdvanceTo(0, 100, 10, func(*Result, int) error { saved++; return nil })
	if !errors.Is(err, ErrCanceled) || done != 10 || saved != 1 {
		t.Fatalf("AdvanceTo = %d, %v after %d saves; want 10, ErrCanceled, 1 save", done, err, saved)
	}
}

// TestSupervisedRollbackReplaysSnapshotBoundaries: a supervised session
// that rolls back across Snapshot boundaries it has already passed must
// canonicalise at each of them again during the replay, or the
// recovered run leaves the trajectory of the unfaulted one. Cadence 1
// rolls back a few steps; cadence 1000 keeps only the first snapshot,
// so the replay crosses several boundaries.
func TestSupervisedRollbackReplaysSnapshotBoundaries(t *testing.T) {
	const total, every = 24, 4
	chunked := func(cfg Config, ft FTConfig) *Result {
		t.Helper()
		s, err := OpenSupervised(cfg, ft)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.AdvanceTo(0, total, every, func(*Result, int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		return s.Result()
	}
	for _, mode := range []Mode{MPI, Hybrid} {
		want := chunked(bedConfig(mode), FTConfig{})
		for _, snapEvery := range []int{1, 1000} {
			cfg := bedConfig(mode)
			plan := mp.NewFaultPlan(3)
			plan.ArmKill(1, cfg.Warmup+18)
			cfg.Faults = plan
			retries := 0
			got := chunked(cfg, FTConfig{SnapshotEvery: snapEvery, OnRetry: func(int, int) { retries++ }})
			if plan.Stats().Killed != 1 || retries != 1 {
				t.Fatalf("%v every=%d: %d kills, %d retries; want one of each", mode, snapEvery, plan.Stats().Killed, retries)
			}
			if got.Iters != total {
				t.Fatalf("%v every=%d: recovered session reports %d iterations, want %d", mode, snapEvery, got.Iters, total)
			}
			for i := range want.Pos {
				if want.Pos[i] != got.Pos[i] || want.Vel[i] != got.Vel[i] {
					t.Fatalf("%v every=%d: particle %d diverged after a rollback across snapshot boundaries", mode, snapEvery, i)
				}
			}
		}
	}
}

// TestCanonicaliseReusesScratch: returning the shared store to
// particle-ID order at a snapshot boundary builds its permutation in
// scratch the simulation keeps, so a warm boundary — permute, rebin,
// rebuild the list — allocates no per-particle slice.
func TestCanonicaliseReusesScratch(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	for _, mode := range []Mode{Serial, OpenMP} {
		cfg := Default(2, 5000)
		cfg.Mode, cfg.InitVel = mode, 2
		if mode == OpenMP {
			cfg.T = 2
		}
		s, err := newSharedSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			s.step()
		}
		s.canonicalise() // the first boundary grows the scratch
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s.step()
		s.canonicalise()
		runtime.ReadMemStats(&m1)
		s.close()
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew >= uint64(4*cfg.N) {
			t.Errorf("%v: a warm boundary allocates %d bytes; one int32 per particle is %d", mode, grew, 4*cfg.N)
		}
	}
}
