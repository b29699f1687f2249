package checkpoint

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hybriddem/internal/core"
	"hybriddem/internal/geom"
	"hybriddem/internal/grain"
)

func runCfg(n int) core.Config {
	cfg := core.Default(2, n)
	cfg.Seed = 21
	cfg.InitVel = 1.5
	cfg.CollectState = true
	return cfg
}

func TestRoundTripBytes(t *testing.T) {
	cfg := runCfg(200)
	res, err := core.Run(cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := FromResult(&cfg, res, 20)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Error("snapshot round trip changed data")
	}
}

func TestRoundTripFile(t *testing.T) {
	cfg := runCfg(100)
	res, err := core.Run(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := FromResult(&cfg, res, 5)
	path := filepath.Join(t.TempDir(), "state.ck")
	if err := SaveFile(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Error("file round trip changed data")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.ck")); err == nil {
		t.Error("missing file loaded")
	}
}

// TestSaveFileAtomicOverwrite: overwriting an existing checkpoint must
// leave no temporary files behind (both the success path and the
// error-cleanup path), and the target must always hold a complete,
// loadable frame. The fsync-before-rename + directory-fsync ordering
// itself cannot be observed without crashing the kernel; this pins the
// visible half of the contract — the temp file lifecycle.
func TestSaveFileAtomicOverwrite(t *testing.T) {
	cfg := runCfg(100)
	res, err := core.Run(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := FromResult(&cfg, res, 5)
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ck")
	for i := 0; i < 3; i++ { // create, then overwrite twice
		if err := SaveFile(path, snap); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(path); err != nil {
			t.Fatalf("overwrite %d left an unloadable checkpoint: %v", i, err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "state.ck" {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Errorf("directory holds %v, want only state.ck (temp files must not survive)", names)
	}
	// Error path: an unwritable target directory must fail without
	// leaving the previous checkpoint damaged.
	if err := SaveFile(filepath.Join(dir, "no-such-subdir", "x.ck"), snap); err == nil {
		t.Error("SaveFile into a missing directory succeeded")
	}
	if _, err := LoadFile(path); err != nil {
		t.Errorf("failed save damaged the existing checkpoint: %v", err)
	}
}

// TestResumeReproducesTrajectory: 40 straight iterations must equal
// 20 iterations + checkpoint + 20 resumed iterations, bit for bit: the
// resume stores the particles as the run did and builds its list at
// the run's reference positions.
func TestResumeReproducesTrajectory(t *testing.T) {
	full := runCfg(300)
	fullRes, err := core.Run(full, 40)
	if err != nil {
		t.Fatal(err)
	}

	first := runCfg(300)
	firstRes, err := core.Run(first, 20)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := FromResult(&first, firstRes, 20)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	second := runCfg(300)
	if err := loaded.Apply(&second); err != nil {
		t.Fatal(err)
	}
	secondRes, err := core.Run(second, 20)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(fullRes.Pos, secondRes.Pos) || !reflect.DeepEqual(fullRes.Vel, secondRes.Vel) {
		t.Error("resumed trajectory differs from the straight run")
	}
}

// TestResumeAcrossModes: a checkpoint resumes in another mode and rank
// count — not on the writer's bits, which the summation order differs
// by, but on its physics. The distributed writer has particles outside
// the periodic box (its deferred wrap), which a shared reader takes as
// they are; a shared writer has crossed particles folded away from
// their references, which a distributed reader moves back to the image
// beside its reference before the first step.
func TestResumeAcrossModes(t *testing.T) {
	mpi := func(p int) func(*core.Config) {
		return func(c *core.Config) { c.Mode, c.P, c.BlocksPerProc = core.MPI, p, 2 }
	}
	serial := func(c *core.Config) {}
	for _, tc := range []struct {
		name           string
		writer, reader func(*core.Config)
	}{
		{"mpi-to-serial", mpi(2), serial},
		{"serial-to-mpi", serial, mpi(2)},
		{"mpi-to-mpi-p3", mpi(2), mpi(3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runCfg(600)
			base.InitVel = 20 // crossing the periodic faces within a few steps
			first := base
			tc.writer(&first)
			full, err := core.Run(first, 30)
			if err != nil {
				t.Fatal(err)
			}
			part, err := core.Run(first, 15)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := FromResult(&first, part, 15)
			if err != nil {
				t.Fatal(err)
			}
			second := base
			tc.reader(&second)
			if err := snap.Apply(&second); err != nil {
				t.Fatal(err)
			}
			res, err := core.Run(second, 15)
			if err != nil {
				t.Fatal(err)
			}
			box := second.Box()
			maxd := 0.0
			for i := range full.Pos {
				maxd = max(maxd, math.Sqrt(box.Dist2(full.Pos[i], res.Pos[i])))
			}
			if maxd > 1e-8 {
				t.Errorf("resumed in another mode, the trajectory deviates by %g", maxd)
			}
		})
	}
}

func TestApplyValidation(t *testing.T) {
	cfg := runCfg(50)
	res, err := core.Run(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := FromResult(&cfg, res, 2)

	bad := runCfg(60)
	if err := snap.Apply(&bad); err == nil {
		t.Error("N mismatch accepted")
	}
	bad2 := runCfg(50)
	bad2.L *= 2
	if err := snap.Apply(&bad2); err == nil {
		t.Error("box mismatch accepted")
	}
	bad3 := runCfg(50)
	bad3.Spring.Diameter *= 2
	if err := snap.Apply(&bad3); err == nil {
		t.Error("diameter mismatch accepted")
	}
	good := runCfg(50)
	if err := snap.Apply(&good); err != nil {
		t.Errorf("valid apply rejected: %v", err)
	}
}

// TestSnapshotCapturesForceLaw: every force-law and integration
// parameter must survive the round trip with a non-default value,
// and a restoring configuration differing in that one parameter must
// be rejected by Apply. A snapshot that validated only geometry would
// happily resume a run under different physics.
func TestSnapshotCapturesForceLaw(t *testing.T) {
	base := func() core.Config {
		cfg := runCfg(80)
		cfg.Spring.K = 750
		cfg.Spring.Damp = 2.5
		cfg.Spring.Hertz = true
		cfg.Dt = 3e-5
		cfg.Gravity = -15
		cfg.FillHeight = 0.4
		return cfg
	}
	cfg := base()
	res, err := core.Run(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := FromResult(&cfg, res, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	fields := []struct {
		name   string
		read   func(*Snapshot) float64
		want   float64
		mutate func(*core.Config)
	}{
		{"K", func(s *Snapshot) float64 { return s.K }, 750,
			func(c *core.Config) { c.Spring.K = 500 }},
		{"Damp", func(s *Snapshot) float64 { return s.Damp }, 2.5,
			func(c *core.Config) { c.Spring.Damp = 0 }},
		{"Hertz", func(s *Snapshot) float64 { return b2f(s.Hertz) }, 1,
			func(c *core.Config) { c.Spring.Hertz = false }},
		{"Dt", func(s *Snapshot) float64 { return s.Dt }, 3e-5,
			func(c *core.Config) { c.Dt = 5e-5 }},
		{"Gravity", func(s *Snapshot) float64 { return s.Gravity }, -15,
			func(c *core.Config) { c.Gravity = 0 }},
		{"FillHeight", func(s *Snapshot) float64 { return s.FillHeight }, 0.4,
			func(c *core.Config) { c.FillHeight = 0.25 }},
	}
	for _, f := range fields {
		if got := f.read(loaded); got != f.want {
			t.Errorf("%s did not survive the round trip: got %g, want %g", f.name, got, f.want)
		}
		bad := base()
		f.mutate(&bad)
		if err := loaded.Apply(&bad); err == nil {
			t.Errorf("%s mismatch accepted", f.name)
		}
	}
	good := base()
	if err := loaded.Apply(&good); err != nil {
		t.Errorf("matching force law rejected: %v", err)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// grainsCfg builds a small composite-grain run: trimers settling under
// gravity with dissipative bonds.
func grainsCfg(t *testing.T) core.Config {
	t.Helper()
	cfg := core.Default(2, 90)
	cfg.BC = geom.Reflecting
	cfg.Gravity = -10
	cfg.Seed = 13
	cfg.CollectState = true
	st, bt, err := grain.Build(grain.Config{
		D: 2, Shape: grain.Trimer, Grains: 30,
		Diameter: cfg.Spring.Diameter,
		Box:      cfg.Box(), Height: 0.5,
		BondK: 400, BondDamp: 1, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Init = &core.State{Pos: st.Pos, Vel: st.Vel}
	cfg.Spring.Bonds = bt
	return cfg
}

// TestGrainsSaveResume: a composite-grain run saved and resumed must
// track the unbroken run — which only works if the snapshot carries
// the bond table, since the bond springs are the glue holding every
// grain together. Also exercises resuming into a configuration with no
// table of its own (the snapshot supplies it) and rejecting a
// configuration whose table disagrees.
func TestGrainsSaveResume(t *testing.T) {
	full := grainsCfg(t)
	fullRes, err := core.Run(full, 30)
	if err != nil {
		t.Fatal(err)
	}

	first := grainsCfg(t)
	firstRes, err := core.Run(first, 15)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := FromResult(&first, firstRes, 15)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Bonds == nil || snap.Bonds.NumBonds() != first.Spring.Bonds.NumBonds() {
		t.Fatal("snapshot did not capture the bond table")
	}
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Bonds.Equal(first.Spring.Bonds) {
		t.Fatal("bond table changed across the round trip")
	}

	// Resume into a config that never built a table: the snapshot's
	// must be installed.
	second := grainsCfg(t)
	second.Spring.Bonds = nil
	if err := loaded.Apply(&second); err != nil {
		t.Fatal(err)
	}
	if second.Spring.Bonds == nil {
		t.Fatal("Apply did not install the snapshot's bond table")
	}
	secondRes, err := core.Run(second, 15)
	if err != nil {
		t.Fatal(err)
	}

	box := full.Box()
	maxd := 0.0
	for i := range fullRes.Pos {
		if d := math.Sqrt(box.Dist2(fullRes.Pos[i], secondRes.Pos[i])); d > maxd {
			maxd = d
		}
	}
	if maxd > 1e-8 {
		t.Errorf("resumed grain trajectory deviates by %g from the unbroken run", maxd)
	}

	// A config with a conflicting table must be rejected.
	conflict := grainsCfg(t)
	conflict.Spring.Bonds.K *= 2
	if err := loaded.Apply(&conflict); err == nil {
		t.Error("conflicting bond table accepted")
	}
}

func TestFromResultRequiresState(t *testing.T) {
	cfg := core.Default(2, 50)
	cfg.Seed = 1
	res, err := core.Run(cfg, 2) // CollectState off
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromResult(&cfg, res, 2); err == nil {
		t.Error("stateless result accepted")
	}
}

// TestORBTreeRoundTrip: a distributed ORB run's adopted cut tree rides
// the snapshot through the framed wire format and comes back as
// Config.InitTree, Equal to the original; a snapshot without a tree
// leaves InitTree untouched; a corrupted tree payload is rejected.
func TestORBTreeRoundTrip(t *testing.T) {
	cfg := runCfg(300)
	cfg.Mode = core.MPI
	cfg.P = 2
	cfg.BlocksPerProc = 4
	cfg.Rebalance = core.RebalanceORB
	res, err := core.Run(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tree == nil {
		t.Fatal("ORB run returned no cut tree snapshot")
	}
	snap, err := FromResult(&cfg, res, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.ORBTree) == 0 {
		t.Fatal("snapshot carries no encoded tree")
	}
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resumed := runCfg(300)
	resumed.Mode = core.MPI
	resumed.P = 2
	resumed.BlocksPerProc = 4
	resumed.Rebalance = core.RebalanceORB
	if err := got.Apply(&resumed); err != nil {
		t.Fatal(err)
	}
	if resumed.InitTree == nil {
		t.Fatal("Apply left InitTree nil")
	}
	if !resumed.InitTree.Equal(res.Tree) {
		t.Error("restored tree differs from the captured one")
	}

	// No tree on the result -> InitTree stays nil.
	serial := runCfg(100)
	sres, err := core.Run(serial, 5)
	if err != nil {
		t.Fatal(err)
	}
	ssnap, err := FromResult(&serial, sres, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ssnap.ORBTree) != 0 {
		t.Fatal("serial snapshot carries a tree")
	}
	target := runCfg(100)
	if err := ssnap.Apply(&target); err != nil {
		t.Fatal(err)
	}
	if target.InitTree != nil {
		t.Error("Apply invented an InitTree from a treeless snapshot")
	}

	// A corrupted tree payload must fail Apply, not poison the run.
	bad := *snap
	bad.ORBTree = append([]byte(nil), snap.ORBTree...)
	bad.ORBTree[len(bad.ORBTree)-1] ^= 0x01
	broken := runCfg(300)
	broken.Mode = core.MPI
	broken.P = 2
	broken.BlocksPerProc = 4
	broken.Rebalance = core.RebalanceORB
	if err := bad.Apply(&broken); err == nil {
		t.Error("Apply accepted a corrupted tree payload")
	}
}

// TestFromResultRefusesAStaleResult: a Result kept across an Advance
// shares the session's arrangement, which that Advance overwrote, so a
// checkpoint of it would pair the later state with the earlier
// iteration count. FromResult refuses it, in a shared and a
// distributed mode, and takes the fresh Result.
func TestFromResultRefusesAStaleResult(t *testing.T) {
	for _, mode := range []core.Mode{core.Serial, core.MPI} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := runCfg(200)
			if mode == core.MPI {
				cfg.Mode, cfg.P = core.MPI, 2
			}
			sim, err := core.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			if err := sim.Advance(3); err != nil {
				t.Fatal(err)
			}
			old := sim.Result()
			if _, err := FromResult(&cfg, old, 3); err != nil {
				t.Fatalf("fresh Result refused: %v", err)
			}
			if err := sim.Advance(2); err != nil {
				t.Fatal(err)
			}
			if _, err := FromResult(&cfg, old, 3); err == nil {
				t.Fatal("a Result kept across an Advance was checkpointed")
			}
			if _, err := FromResult(&cfg, sim.Result(), 5); err != nil {
				t.Fatalf("fresh Result refused: %v", err)
			}
		})
	}
}
