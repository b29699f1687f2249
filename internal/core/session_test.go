package core

import (
	"errors"
	"reflect"
	"testing"

	"hybriddem/internal/mp"
	"hybriddem/internal/shm"
)

// bedConfig is a dense, lively 3-D bed: the order forces are summed in
// shows up in the last bit within a few steps, so a rollback that
// restored a store in any other order cannot pass a bit comparison by
// luck.
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

// TestAdvanceToSavesWhereStopCuts: a Stop request is honoured at the
// step it is seen, between two grid boundaries or not, and that step is
// saved — on a bed at rest, which never rebuilds, as on any other.
func TestAdvanceToSavesWhereStopCuts(t *testing.T) {
	cfg := Default(2, 200) // at rest
	cfg.CollectState = true
	cfg.Stop = func() bool { return true }
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var saved []int
	done, err := s.AdvanceTo(0, 100, 10, func(_ *Result, done int) error { saved = append(saved, done); return nil })
	if !errors.Is(err, ErrCanceled) || done != 1 || !reflect.DeepEqual(saved, []int{1}) {
		t.Fatalf("AdvanceTo = %d, %v after saves at %v; want 1, ErrCanceled, one save at 1", done, err, saved)
	}
}

// TestSupervisedRollbackAcrossChunkBoundaries: a supervised session
// that rolls back across chunk boundaries it has already saved replays
// them on the unfaulted session's bits. Cadence 1 rolls back one step;
// cadence 1000 keeps no snapshot, so the replay starts from scratch and
// crosses every boundary.
func TestSupervisedRollbackAcrossChunkBoundaries(t *testing.T) {
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
					t.Fatalf("%v every=%d: particle %d diverged after a rollback across chunk boundaries", mode, snapEvery, i)
				}
			}
		}
	}
}

// TestMeanLinkDistIsTheListsDistSum: the locality figure a Result
// reports is the one the link builder summed — the leader's lists'
// DistSum over their link count — after rebuilds in every shape.
func TestMeanLinkDistIsTheListsDistSum(t *testing.T) {
	for _, mode := range []Mode{Serial, OpenMP, MPI, Hybrid} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := bedConfig(mode)
			if mode == OpenMP {
				cfg.P, cfg.BlocksPerProc, cfg.T, cfg.Method = 1, 1, 2, shm.Transpose
			}
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Advance(30); err != nil {
				t.Fatal(err)
			}
			res := s.Result()
			var sum, links int64
			err = s.run(func(st stepper) {
				switch st := st.(type) {
				case *sharedSim:
					sum, links = st.list.DistSum, int64(len(st.list.Links))
				case *rankSim:
					if st.rank() == 0 {
						for _, b := range st.dm.Blocks {
							sum += b.List.DistSum
							links += int64(len(b.List.Links))
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rebuilds == 0 || links == 0 || sum <= 0 {
				t.Fatalf("degenerate run: %d rebuilds, %d links, DistSum %d", res.Rebuilds, links, sum)
			}
			if want := float64(sum) / float64(links); res.MeanLinkDist != want {
				t.Fatalf("MeanLinkDist %v, leader's lists %d / %d = %v", res.MeanLinkDist, sum, links, want)
			}
		})
	}
}
