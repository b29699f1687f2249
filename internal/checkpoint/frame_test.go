package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"hybriddem/internal/core"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/raceflag"
)

// frame wraps a payload in a header Load accepts: magic, length and
// the payload's CRC-32C.
func frame(payload []byte) []byte {
	hdr := make([]byte, headerLen, headerLen+len(payload))
	copy(hdr, magic[:])
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(crc32.Checksum(payload, castagnoli)))
	return append(hdr, payload...)
}

// saved returns the snapshot's frame.
func saved(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// smallSnapshot is a hand-built snapshot with every section of the
// payload populated: five particles in two dimensions stored out of id
// order, references apart from the positions, a (fake) ORB tree blob
// and a bond table.
func smallSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	bt := force.NewBondTable(5, 2, 400, 1)
	if err := bt.Add(0, 1, 0.04); err != nil {
		t.Fatal(err)
	}
	if err := bt.Add(1, 2, 0.05); err != nil {
		t.Fatal(err)
	}
	s := &Snapshot{
		D: 2, N: 5, L: 1.5, BC: geom.Reflecting, Diameter: 0.05,
		K: 1000, Damp: 0.5, Hertz: true, Dt: 1e-4, Gravity: -9.81, FillHeight: 0.5,
		Bonds: bt, Iters: 17, ORBTree: []byte("not decoded until Apply"),
		Order: []int32{3, 0, 4, 2, 1},
	}
	for k := 0; k < s.D; k++ {
		for i := 0; i < s.N; i++ {
			s.Pos[k] = append(s.Pos[k], 0.1*float64(i+1)+float64(k))
			s.Vel[k] = append(s.Vel[k], -0.5*float64(i)+float64(k))
			s.Ref[k] = append(s.Ref[k], 0.1*float64(i+1)+float64(k)-0.01)
		}
	}
	return s
}

// sections returns the offsets at which the sections of s's frame
// begin, the frame's end included.
func sections(t testing.TB, s *Snapshot) []int {
	t.Helper()
	bonds, err := s.Bonds.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{0, 8, 16, headerLen}
	at := headerLen
	for _, n := range []int{scalarLen, 8, len(s.ORBTree), 8, len(bonds), 8 * s.D * s.N, 8 * s.D * s.N, 8 * s.D * s.N, 4 * s.N} {
		at += n
		cuts = append(cuts, at)
	}
	return cuts
}

// validBytes returns one framed checkpoint of a real run as raw bytes.
func validBytes(t *testing.T) []byte {
	t.Helper()
	cfg := runCfg(40)
	res, err := core.Run(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := FromResult(&cfg, res, 3)
	if err != nil {
		t.Fatal(err)
	}
	return saved(t, snap)
}

// TestLoadRejectsTornWrite: a checkpoint truncated at any section
// boundary — magic, length, checksum, scalars, either blob's length or
// body, positions, velocities, references, order — or anywhere inside
// a section must come back as an error, never a panic or a silently
// short snapshot.
func TestLoadRejectsTornWrite(t *testing.T) {
	s := smallSnapshot(t)
	full := saved(t, s)
	cuts := sections(t, s)
	if end := cuts[len(cuts)-1]; end != len(full) {
		t.Fatalf("sections add up to %d bytes, the frame has %d", end, len(full))
	}
	for n := 0; n < len(full); n++ { // every boundary and every byte inside each
		if _, err := Load(bytes.NewReader(full[:n])); err == nil {
			t.Errorf("truncation at %d of %d bytes loaded successfully", n, len(full))
		}
	}
	if _, err := Load(bytes.NewReader(full)); err != nil {
		t.Fatalf("untruncated bytes rejected: %v", err)
	}
	// A payload that ends at a section boundary, or inside the last
	// two, under a header that says so (length and checksum right) is
	// caught by the layout checks, not the frame.
	ends := append([]int(nil), cuts[3:len(cuts)-1]...)
	for _, sec := range [][2]int{{cuts[len(cuts)-3], cuts[len(cuts)-2]}, {cuts[len(cuts)-2], cuts[len(cuts)-1]}} {
		for at := sec[0] + 1; at < sec[1]; at++ {
			ends = append(ends, at)
		}
	}
	for _, cut := range ends {
		if _, err := Load(bytes.NewReader(frame(full[headerLen:cut]))); err == nil {
			t.Errorf("a well-framed payload ending at offset %d loaded successfully", cut)
		}
	}
}

// TestLoadRejectsBitFlips: every single flipped bit of a frame — in
// the magic, the length, the checksum or any section of the payload —
// must be detected.
func TestLoadRejectsBitFlips(t *testing.T) {
	full := saved(t, smallSnapshot(t))
	mut := make([]byte, len(full))
	for off := range full {
		for bit := 0; bit < 8; bit++ {
			copy(mut, full)
			mut[off] ^= 1 << bit
			if _, err := Load(bytes.NewReader(mut)); err == nil {
				t.Errorf("flipping bit %d of byte %d went undetected", bit, off)
			}
		}
	}
}

// TestLoadRejectsImplausibleLayout: a payload whose checksum is right
// but whose own fields are not — dimension, count, flags, blob lengths,
// a D·N product that overflows — is refused before any state is
// allocated.
func TestLoadRejectsImplausibleLayout(t *testing.T) {
	s := smallSnapshot(t)
	good := saved(t, s)[headerLen:]
	cuts := sections(t, s)
	treeLen, bondLen := cuts[4]-headerLen, cuts[6]-headerLen
	set := func(off int, v uint64) []byte {
		p := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(p[off:], v)
		return p
	}
	for name, p := range map[string][]byte{
		"D=0":                set(0, 0),
		"D=4":                set(0, geom.MaxD+1),
		"D=2^63":             set(0, 1<<63),
		"N+1":                set(8, uint64(s.N)+1),
		"N-1":                set(8, uint64(s.N)-1),
		"N=2^61 (overflow)":  set(8, 1<<61),
		"N=2^64/32+5":        set(8, 1<<59+5), // 2·D·N·8 wraps to the right length
		"Iters=2^63":         set(16, 1<<63),
		"BC=2":               set(24, 2),
		"Hertz=2":            set(32, 2),
		"tree length huge":   set(treeLen, 1<<40),
		"tree length +1":     set(treeLen, uint64(len(s.ORBTree))+1),
		"tree length max":    set(treeLen, math.MaxUint64),
		"bond length huge":   set(bondLen, 1<<40),
		"bond length -1":     set(bondLen, uint64(cuts[7]-cuts[6])-1),
		"bond length max":    set(bondLen, math.MaxUint64),
		"scalars only":       good[:scalarLen],
		"no bond length":     good[:cuts[5]-headerLen],
		"trailing byte":      append(append([]byte(nil), good...), 0),
		"bond table garbage": append(append([]byte(nil), good[:cuts[6]-headerLen]...), bytes.Repeat([]byte{0xff}, len(good)-(cuts[6]-headerLen))...),
	} {
		if _, err := Load(bytes.NewReader(frame(p))); err == nil {
			t.Errorf("%s: loaded successfully", name)
		}
	}
	if _, err := Load(bytes.NewReader(frame(good))); err != nil {
		t.Fatalf("the unmodified payload, reframed, is rejected: %v", err)
	}
}

func TestLoadRejectsForeignBytes(t *testing.T) {
	huge := frame(nil)
	binary.LittleEndian.PutUint64(huge[8:16], maxPayload+1)
	cases := map[string][]byte{
		"empty":       nil,
		"not-magic":   []byte("this is definitely not a checkpoint file, sorry"),
		"near-magic":  append([]byte("HYDEMCK3"), make([]byte, 64)...),
		"zero-length": frame(nil),
		"huge-length": huge,
	}
	for name, b := range cases {
		if _, err := Load(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: foreign bytes loaded successfully", name)
		}
	}
}

// TestLoadNamesTheOldFormats: files of the frames this one replaced —
// the gob-encoded one, and the fixed layout without references and
// store order — are refused by name, so an operator (and demd's
// "durable checkpoint unusable; falling back" log line) can tell an old
// file from a damaged one.
func TestLoadNamesTheOldFormats(t *testing.T) {
	for magic, says := range map[string]string{"HYDEMCK1": "gob", "HYDEMCK2": "reference positions"} {
		old := append([]byte(magic), make([]byte, 200)...)
		_, err := Load(bytes.NewReader(old))
		if err == nil || !strings.Contains(err.Error(), magic) || !strings.Contains(err.Error(), says) {
			t.Errorf("%s: got %v, want an error naming %s and %q", magic, err, magic, says)
		}
	}
}

// TestLoadNamesABadOrder: an order section that stores an id twice, or
// one outside [0, N), is refused with ErrOrder behind a valid checksum,
// and by Validate when a hand-built state carries it: installed, it
// would silently store one particle twice.
func TestLoadNamesABadOrder(t *testing.T) {
	s := smallSnapshot(t)
	good := saved(t, s)[headerLen:]
	at := len(good) - 4*s.N
	for name, order := range map[string][]int32{
		"duplicate":    {3, 0, 4, 2, 3},
		"out of range": {3, 0, 5, 2, 1},
		"negative":     {3, 0, -1, 2, 1},
	} {
		p := append([]byte(nil), good...)
		for i, id := range order {
			binary.LittleEndian.PutUint32(p[at+4*i:], uint32(id))
		}
		if _, err := Load(bytes.NewReader(frame(p))); !errors.Is(err, ErrOrder) {
			t.Errorf("%s: got %v, want ErrOrder", name, err)
		}
		cfg := core.Default(2, s.N)
		cfg.Init = &core.State{Pos: make([]geom.Vec, s.N), Vel: make([]geom.Vec, s.N), Order: order}
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "Init order") {
			t.Errorf("%s: Validate said %v, want the order refused", name, err)
		}
	}
	if _, err := Load(bytes.NewReader(frame(good))); err != nil {
		t.Fatalf("the unmodified payload, reframed, is rejected: %v", err)
	}
}

// TestLoadDoesNotTrustTheLength: a header that promises gigabytes over
// a file that holds none of them fails on the read, having allocated
// no more than readStep ahead of it.
func TestLoadDoesNotTrustTheLength(t *testing.T) {
	lying := frame(make([]byte, scalarLen+16))
	binary.LittleEndian.PutUint64(lying[8:16], maxPayload)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := Load(bytes.NewReader(lying))
	runtime.ReadMemStats(&m1)
	if err == nil {
		t.Fatal("a frame shorter than its length field loaded successfully")
	}
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 2*readStep {
		t.Errorf("Load allocated %d bytes for a %d-byte file", grew, len(lying))
	}
}

// TestSaveLoadSaveIdentical: what Load returns, Save writes back byte
// for byte — free particles, grains with a bond table, an ORB run with
// its tree (each with the arrangement its run held), the hand-built
// snapshot with every section populated, and a state by particle id
// alone, whose references and order Save spells out.
func TestSaveLoadSaveIdentical(t *testing.T) {
	free := runCfg(120)
	grains := grainsCfg(t)
	orb := runCfg(300)
	orb.Mode, orb.P, orb.BlocksPerProc, orb.Rebalance = core.MPI, 2, 4, core.RebalanceORB
	snaps := map[string]*Snapshot{"hand-built": smallSnapshot(t)}
	byID := smallSnapshot(t)
	byID.Ref, byID.Order = geom.Coords{}, nil
	snaps["by-id"] = byID
	for name, cfg := range map[string]core.Config{"free": free, "grains": grains, "orb": orb} {
		res, err := core.Run(cfg, 6)
		if err != nil {
			t.Fatal(err)
		}
		if snaps[name], err = FromResult(&cfg, res, 6); err != nil {
			t.Fatal(err)
		}
	}
	if snaps["grains"].Bonds == nil || len(snaps["orb"].ORBTree) == 0 || len(snaps["free"].ORBTree) != 0 {
		t.Fatal("the cases do not cover bonds, a tree and neither")
	}
	for name, snap := range snaps {
		first := saved(t, snap)
		back, err := Load(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if second := saved(t, back); !bytes.Equal(first, second) {
			t.Errorf("%s: Save(Load(Save(s))) differs from Save(s) (%d and %d bytes)", name, len(first), len(second))
		}
		if want := headerLen + scalarLen + 16 + len(snap.ORBTree) + (24*snap.D+4)*snap.N; snap.Bonds == nil && len(first) != want {
			t.Errorf("%s: frame of %d bytes, want header + scalars + blobs + (24·D+4)·N = %d", name, len(first), want)
		}
	}
}

// TestSaveRejectsRaggedSnapshot: the layout has one N for every
// component, so Save refuses a snapshot that does not.
func TestSaveRejectsRaggedSnapshot(t *testing.T) {
	for name, mutate := range map[string]func(*Snapshot){
		"short component": func(s *Snapshot) { s.Vel[1] = s.Vel[1][:s.N-1] },
		"short reference": func(s *Snapshot) { s.Ref[1] = s.Ref[1][:s.N-1] },
		"short order":     func(s *Snapshot) { s.Order = s.Order[:s.N-1] },
		"D too large":     func(s *Snapshot) { s.D = geom.MaxD + 1 },
		"negative N":      func(s *Snapshot) { s.N = -1 },
	} {
		s := smallSnapshot(t)
		mutate(s)
		if err := Save(&bytes.Buffer{}, s); err == nil {
			t.Errorf("%s: saved", name)
		}
	}
}

// TestSaveFileWarmAllocation: the encoder stages the payload through a
// pooled chunk, so a warm SaveFile allocates far less than the payload
// it writes (what is left is the temp file's name and handle).
func TestSaveFileWarmAllocation(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	cfg := core.Default(3, 20000)
	cfg.Seed, cfg.CollectState = 3, true
	res, err := core.Run(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := FromResult(&cfg, res, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "warm.ck")
	if err := SaveFile(path, snap); err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		if err := SaveFile(path, snap); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	payload := uint64((24*snap.D + 4) * snap.N)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / rounds; per >= payload/8 {
		t.Errorf("a warm SaveFile allocates %d bytes for a %d-byte payload, want under an eighth", per, payload)
	}
}

// TestWarmBoundaryAllocation: a durable boundary of a live session —
// an Advance that gathers the state, FromResult, SaveFile — allocates
// the two by-id vectors per particle Result carries and nothing else
// that grows with N: the arrangement, references and order included,
// lives in storage the session keeps.
func TestWarmBoundaryAllocation(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	for _, mode := range []core.Mode{core.Serial, core.MPI} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := core.Default(3, 50000)
			cfg.Seed, cfg.Mode, cfg.CollectState = 3, mode, true
			if mode == core.MPI {
				cfg.P = 2
			}
			sim, err := core.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			path := filepath.Join(t.TempDir(), "warm.ck")
			boundary := func() {
				if err := sim.Advance(1); err != nil {
					t.Fatal(err)
				}
				snap, err := FromResult(&cfg, sim.Result(), 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := SaveFile(path, snap); err != nil {
					t.Fatal(err)
				}
			}
			// No collection from here on: it would empty the encoder's
			// chunk pool, which the next Save then refills.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			boundary()
			boundary()
			const rounds = 4
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < rounds; i++ {
				boundary()
			}
			runtime.ReadMemStats(&m1)
			byID := uint64(2 * cfg.N * int(unsafe.Sizeof(geom.Vec{})))
			// The order alone would add 4·N bytes, the references 8·D·N;
			// 2·N covers what does not grow with N (the temp file, about
			// 10 KB, and a staging chunk the pool lost to another P).
			if per := (m1.TotalAlloc - m0.TotalAlloc) / rounds; per >= byID+uint64(2*cfg.N) {
				t.Errorf("a warm boundary allocates %d bytes; the by-id state is %d", per, byID)
			}
		})
	}
}

// TestSaveFileAtomic: SaveFile must leave exactly the finished file —
// no temp litter — and replace an existing checkpoint in one step so a
// reader never observes a partial write at the target path.
func TestSaveFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ck")

	cfg := runCfg(40)
	res, err := core.Run(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := FromResult(&cfg, res, 3)
	if err := SaveFile(path, snap); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a later snapshot; the target must stay loadable
	// throughout and end up holding the new state.
	snap2, _ := FromResult(&cfg, res, 7)
	if err := SaveFile(path, snap2); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iters != 7 {
		t.Errorf("loaded Iters = %d, want the overwriting snapshot's 7", got.Iters)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file %q left behind", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want just the checkpoint", len(entries))
	}
}

// TestLoadFileRejectsLegacyPartial: a file that is only the first half
// of a checkpoint (what a crash mid-write would leave without the
// atomic rename) must be rejected by LoadFile.
func TestLoadFileRejectsLegacyPartial(t *testing.T) {
	full := validBytes(t)
	path := filepath.Join(t.TempDir(), "torn.ck")
	if err := os.WriteFile(path, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Error("torn file loaded successfully")
	}
}

// TestSaveConcurrently: demd's workers save side by side through one
// pool of staging chunks; every frame must come out whole (CI runs this
// package under -race).
func TestSaveConcurrently(t *testing.T) {
	snap := smallSnapshot(t)
	snap.ORBTree = bytes.Repeat([]byte("a blob longer than one staging chunk "), 4000)
	want := saved(t, snap)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var buf bytes.Buffer
				if err := Save(&buf, snap); err != nil || !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("concurrent Save: err %v, frame equal: %v", err, bytes.Equal(buf.Bytes(), want))
					return
				}
			}
		}()
	}
	wg.Wait()
	if back, err := Load(bytes.NewReader(want)); err != nil || !bytes.Equal(back.ORBTree, snap.ORBTree) {
		t.Errorf("a blob spanning chunks did not survive the round trip: %v", err)
	}
}
