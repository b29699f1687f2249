// Package checkpoint saves and restores simulation state. A snapshot
// captures the physical state (positions, velocities, identities) and
// the geometry needed to validate a resume; restart runs rebuild the
// link list from the restored positions, which reproduces the
// original trajectory exactly because out-of-range pairs contribute
// no force.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"hybriddem/internal/core"
	"hybriddem/internal/decomp"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
)

// Snapshot is one saved simulation state.
type Snapshot struct {
	// Geometry and model, for validation at restore time.
	D        int
	N        int
	L        float64
	BC       geom.Boundary
	Diameter float64

	// Full force law and integration parameters: a resumed run must
	// not silently continue under different physics, so Apply rejects
	// any mismatch against the restoring configuration.
	K          float64 // contact spring stiffness
	Damp       float64 // contact normal damping
	Hertz      bool    // Hertzian contact law instead of the linear spring
	Dt         float64 // time step
	Gravity    float64 // body force along the last dimension
	FillHeight float64 // initial-bed fill fraction (provenance of Init)

	// Bonds carries the composite-grain bond table, nil for runs of
	// free particles. It is keyed by persistent particle ID, so it
	// survives reordering and migration unchanged.
	Bonds *force.BondTable

	// Progress bookkeeping.
	Iters int // iterations completed when the snapshot was taken

	// ORBTree is the serialized ORB decomposition the run had adopted
	// (decomp.ORBTree.Encode), nil/empty for static or LPT runs. It is
	// advisory performance state, not physics: a resume that cannot use
	// it (different rank count, strategy off) still reproduces the
	// trajectory exactly.
	ORBTree []byte

	// Physical state indexed by particle ID, stored component-major to
	// mirror the structure-of-arrays particle store: Pos[k][id] is
	// component k of particle id. Only the first D component slices are
	// populated; a snapshot therefore costs 2*D*N floats regardless of
	// geom.MaxD.
	Pos geom.Coords
	Vel geom.Coords
}

// FromResult builds a snapshot from a finished run; the run must have
// been collected with Config.CollectState.
func FromResult(cfg *core.Config, res *core.Result, itersDone int) (*Snapshot, error) {
	if res.Pos == nil || res.Vel == nil {
		return nil, fmt.Errorf("checkpoint: run did not collect state (set Config.CollectState)")
	}
	var tree []byte
	if res.Tree != nil {
		tree = res.Tree.Encode()
	}
	return &Snapshot{
		D: cfg.D, N: cfg.N, L: cfg.L, BC: cfg.BC,
		Diameter:   cfg.Spring.Diameter,
		K:          cfg.Spring.K,
		Damp:       cfg.Spring.Damp,
		Hertz:      cfg.Spring.Hertz,
		Dt:         cfg.Dt,
		Gravity:    cfg.Gravity,
		FillHeight: cfg.FillHeight,
		Bonds:      cfg.Spring.Bonds,
		Iters:      itersDone,
		ORBTree:    tree,
		Pos:        geom.CoordsFromVecs(res.Pos, cfg.D),
		Vel:        geom.CoordsFromVecs(res.Vel, cfg.D),
	}, nil
}

// Apply validates the snapshot against the configuration and installs
// it as the run's initial condition.
func (s *Snapshot) Apply(cfg *core.Config) error {
	if cfg.D != s.D || cfg.N != s.N {
		return fmt.Errorf("checkpoint: snapshot is D=%d N=%d, config is D=%d N=%d", s.D, s.N, cfg.D, cfg.N)
	}
	if cfg.L != s.L || cfg.BC != s.BC {
		return fmt.Errorf("checkpoint: snapshot box (L=%g, %v) does not match config (L=%g, %v)", s.L, s.BC, cfg.L, cfg.BC)
	}
	if cfg.Spring.Diameter != s.Diameter {
		return fmt.Errorf("checkpoint: particle diameter %g does not match config %g", s.Diameter, cfg.Spring.Diameter)
	}
	if cfg.Spring.K != s.K || cfg.Spring.Damp != s.Damp {
		return fmt.Errorf("checkpoint: snapshot spring (K=%g, damp=%g) does not match config (K=%g, damp=%g)",
			s.K, s.Damp, cfg.Spring.K, cfg.Spring.Damp)
	}
	if cfg.Spring.Hertz != s.Hertz {
		return fmt.Errorf("checkpoint: snapshot Hertz=%v does not match config Hertz=%v", s.Hertz, cfg.Spring.Hertz)
	}
	if cfg.Dt != s.Dt {
		return fmt.Errorf("checkpoint: snapshot time step %g does not match config %g", s.Dt, cfg.Dt)
	}
	if cfg.Gravity != s.Gravity {
		return fmt.Errorf("checkpoint: snapshot gravity %g does not match config %g", s.Gravity, cfg.Gravity)
	}
	if cfg.FillHeight != s.FillHeight {
		return fmt.Errorf("checkpoint: snapshot fill height %g does not match config %g", s.FillHeight, cfg.FillHeight)
	}
	switch {
	case s.Bonds == nil && cfg.Spring.Bonds != nil:
		return fmt.Errorf("checkpoint: config has a bond table but the snapshot carries none")
	case s.Bonds != nil && cfg.Spring.Bonds == nil:
		// The snapshot is the authority on the grain topology: a bare
		// config resuming a grains run inherits the saved table.
		cfg.Spring.Bonds = s.Bonds
	case s.Bonds != nil && !s.Bonds.Equal(cfg.Spring.Bonds):
		return fmt.Errorf("checkpoint: snapshot bond table does not match the config's")
	}
	if err := s.checkShape(); err != nil {
		return err
	}
	if len(s.ORBTree) > 0 {
		tree, err := decomp.DecodeTree(s.ORBTree)
		if err != nil {
			return fmt.Errorf("checkpoint: ORB tree: %w", err)
		}
		cfg.InitTree = tree
	}
	cfg.Init = &core.State{Pos: s.Pos.Vecs(s.N, s.D), Vel: s.Vel.Vecs(s.N, s.D)}
	return nil
}

// checkShape rejects a hand-built snapshot the layout cannot hold or
// Apply's gather would index out of range on: a dimension or count out
// of range, or a populated component that does not hold exactly N
// values.
func (s *Snapshot) checkShape() error {
	if s.D < 1 || s.D > geom.MaxD || s.N < 0 || s.Iters < 0 {
		return fmt.Errorf("checkpoint: implausible snapshot D=%d N=%d Iters=%d", s.D, s.N, s.Iters)
	}
	for k := 0; k < s.D; k++ {
		if len(s.Pos[k]) != s.N || len(s.Vel[k]) != s.N {
			return fmt.Errorf("checkpoint: component %d holds %d positions and %d velocities for N=%d",
				k, len(s.Pos[k]), len(s.Vel[k]), s.N)
		}
	}
	return nil
}

// The on-disk format is a checksummed frame around a fixed
// little-endian layout (DESIGN.md §19 has the byte table):
//
//	[8]  magic "HYDEMCK2"
//	[8]  payload length n
//	[8]  CRC-32C (Castagnoli) of the payload, zero-extended
//	[n]  payload:
//	       12 × [8]  D, N, Iters, BC, Hertz (integers), L, Diameter,
//	                 K, Damp, Dt, Gravity, FillHeight (float64 bits)
//	       [8] t, [t]  ORBTree
//	       [8] b, [b]  Bonds, as force.BondTable.GobEncode writes it (0: none)
//	       D×N × [8]   Pos, component by component
//	       D×N × [8]   Vel, component by component
//
// Load applies its checks in this order: magic, length bound, payload
// read in full, checksum — and only then looks inside: D, N and the
// two flags in range, blob lengths within the payload, and the state
// arrays exactly filling what is left, all before it allocates a
// float. A file truncated anywhere fails the header or payload read; a
// flipped bit fails the magic, the length (as a truncation or a
// checksum mismatch) or the checksum — CRC-32C detects every single-bit
// error and every burst of up to 32 bits. Either way Load returns an
// error and never panics.
var magic = [8]byte{'H', 'Y', 'D', 'E', 'M', 'C', 'K', '2'}

// magicV1 opened the gob-encoded, FNV-checksummed frame this one
// replaced. There is no reader for it: Load names it and gives up.
var magicV1 = [8]byte{'H', 'Y', 'D', 'E', 'M', 'C', 'K', '1'}

const (
	headerLen = 24
	scalarLen = 12 * 8 // the fixed fields that open the payload

	// maxPayload bounds the length field so a corrupted header cannot
	// make Load attempt a multi-terabyte allocation.
	maxPayload = 1 << 33 // 8 GiB

	// readStep is the most Load allocates ahead of the bytes it has
	// actually read: a header that lies about the length costs what the
	// file holds, not what it claims.
	readStep = 8 << 20

	chunkLen = 64 << 10 // the encoder's staging buffer
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// chunks recycles the encoder's staging buffers, so that a warm Save
// allocates nothing that grows with the payload.
var chunks = sync.Pool{New: func() any { return new([chunkLen]byte) }}

// encoder stages the payload through one chunk and hands each full
// chunk to sink. The first error sticks and silences the rest.
type encoder struct {
	buf  *[chunkLen]byte
	n    int
	sink func([]byte) error
	err  error
}

func (e *encoder) flush() {
	if e.err == nil && e.n > 0 {
		e.err = e.sink(e.buf[:e.n])
	}
	e.n = 0
}

func (e *encoder) u64(v uint64) {
	if e.n+8 > chunkLen {
		e.flush()
	}
	binary.LittleEndian.PutUint64(e.buf[e.n:], v)
	e.n += 8
}

func (e *encoder) blob(b []byte) {
	e.u64(uint64(len(b)))
	for len(b) > 0 {
		if e.n == chunkLen {
			e.flush()
		}
		m := copy(e.buf[e.n:], b)
		e.n, b = e.n+m, b[m:]
	}
}

func (e *encoder) floats(xs []float64) {
	for len(xs) > 0 {
		if e.n+8 > chunkLen {
			e.flush()
		}
		m := min(len(xs), (chunkLen-e.n)/8)
		dst := e.buf[e.n : e.n+8*m]
		for i, x := range xs[:m] {
			binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(x))
		}
		e.n, xs = e.n+8*m, xs[m:]
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// payload streams the snapshot's payload to sink, chunk by chunk.
func (s *Snapshot) payload(buf *[chunkLen]byte, bonds []byte, sink func([]byte) error) error {
	e := encoder{buf: buf, sink: sink}
	e.u64(uint64(s.D))
	e.u64(uint64(s.N))
	e.u64(uint64(s.Iters))
	e.u64(uint64(s.BC))
	e.u64(b2u(s.Hertz))
	e.floats([]float64{s.L, s.Diameter, s.K, s.Damp, s.Dt, s.Gravity, s.FillHeight})
	e.blob(s.ORBTree)
	e.blob(bonds)
	for _, c := range [...]*geom.Coords{&s.Pos, &s.Vel} {
		for k := 0; k < s.D; k++ {
			e.floats(c[k])
		}
	}
	e.flush()
	return e.err
}

// Save writes the snapshot in the framed format. The checksum leads
// the payload it covers, so the payload is encoded twice through one
// small buffer — once into the CRC, once into w — instead of once into
// a buffer of its own size.
func Save(w io.Writer, s *Snapshot) error {
	if err := s.checkShape(); err != nil {
		return err
	}
	var bonds []byte
	if s.Bonds != nil {
		var err error
		if bonds, err = s.Bonds.GobEncode(); err != nil {
			return fmt.Errorf("checkpoint: bond table: %w", err)
		}
	}
	buf := chunks.Get().(*[chunkLen]byte)
	defer chunks.Put(buf)

	var length, sum uint64
	s.payload(buf, bonds, func(p []byte) error {
		length += uint64(len(p))
		sum = uint64(crc32.Update(uint32(sum), castagnoli, p))
		return nil
	})
	// The first pass has measured the frame: a writer that can make
	// room for it at once (a bytes.Buffer) need not grow into it.
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(headerLen + int(length))
	}
	var hdr [headerLen]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint64(hdr[8:16], length)
	binary.LittleEndian.PutUint64(hdr[16:24], sum)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	err := s.payload(buf, bonds, func(p []byte) error {
		_, werr := w.Write(p)
		return werr
	})
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// readPayload reads exactly n bytes, never allocating more than
// readStep (or what it has read so far) ahead of the reader.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, readStep))
	for got := 0; ; {
		m, err := io.ReadFull(r, buf[got:])
		if got += m; err != nil {
			return nil, err
		}
		if got == n {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(n-got, got))...)
	}
}

// Load reads a snapshot written by Save. It validates the frame —
// magic, length, checksum — before it looks at the payload, and the
// payload's own lengths before it allocates state, so torn writes and
// corrupted bytes come back as errors, never panics or silently wrong
// state.
func Load(r io.Reader) (s *Snapshot, err error) {
	// The bond table decodes through encoding/gob, whose decoder can
	// panic on adversarial input; the checksum makes that input
	// unlikely, this makes it an error.
	defer func() {
		if rec := recover(); rec != nil {
			s, err = nil, fmt.Errorf("checkpoint: decode panic: %v", rec)
		}
	}()
	var hdr [headerLen]byte
	if _, rerr := io.ReadFull(r, hdr[:]); rerr != nil {
		return nil, fmt.Errorf("checkpoint: short header: %w", rerr)
	}
	if bytes.Equal(hdr[:8], magicV1[:]) {
		return nil, fmt.Errorf("checkpoint: magic %q is the gob-encoded format of earlier versions, which this version does not read; re-run from the original configuration", hdr[:8])
	}
	if !bytes.Equal(hdr[:8], magic[:]) {
		return nil, fmt.Errorf("checkpoint: bad magic %q (not a checkpoint file?)", hdr[:8])
	}
	n := binary.LittleEndian.Uint64(hdr[8:16])
	if n > maxPayload || n < scalarLen+16 {
		return nil, fmt.Errorf("checkpoint: implausible payload length %d (corrupt header)", n)
	}
	p, rerr := readPayload(r, int(n))
	if rerr != nil {
		return nil, fmt.Errorf("checkpoint: truncated payload: %w", rerr)
	}
	if want := binary.LittleEndian.Uint64(hdr[16:24]); uint64(crc32.Checksum(p, castagnoli)) != want {
		return nil, fmt.Errorf("checkpoint: checksum mismatch (file corrupted)")
	}

	u := func(i int) uint64 { return binary.LittleEndian.Uint64(p[8*i:]) }
	f := func(i int) float64 { return math.Float64frombits(u(i)) }
	d, np, iters, bc, hertz := u(0), u(1), u(2), u(3), u(4)
	// Each state array holds d·np floats; bounding np by the payload
	// length first keeps the product from overflowing.
	if d < 1 || d > geom.MaxD || np > n/16 || iters > math.MaxInt || bc > uint64(geom.Reflecting) || hertz > 1 {
		return nil, fmt.Errorf("checkpoint: implausible header fields D=%d N=%d Iters=%d BC=%d Hertz=%d", d, np, iters, bc, hertz)
	}
	snap := &Snapshot{
		D: int(d), N: int(np), Iters: int(iters), BC: geom.Boundary(bc), Hertz: hertz == 1,
		L: f(5), Diameter: f(6), K: f(7), Damp: f(8), Dt: f(9), Gravity: f(10), FillHeight: f(11),
	}
	p = p[scalarLen:]
	var blobs [2][]byte // ORB tree, bond table
	for i := range blobs {
		if len(p) < 8 {
			return nil, fmt.Errorf("checkpoint: payload ends inside the length of blob %d", i)
		}
		bl := binary.LittleEndian.Uint64(p)
		if p = p[8:]; bl > uint64(len(p)) {
			return nil, fmt.Errorf("checkpoint: blob %d claims %d bytes of the %d left", i, bl, len(p))
		}
		blobs[i], p = p[:bl], p[bl:]
	}
	if want := 2 * d * np * 8; uint64(len(p)) != want {
		return nil, fmt.Errorf("checkpoint: %d bytes of state for D=%d N=%d, want %d", len(p), d, np, want)
	}
	if len(blobs[0]) > 0 {
		snap.ORBTree = bytes.Clone(blobs[0])
	}
	if len(blobs[1]) > 0 {
		snap.Bonds = new(force.BondTable)
		if derr := snap.Bonds.GobDecode(blobs[1]); derr != nil {
			return nil, fmt.Errorf("checkpoint: bond table: %w", derr)
		}
	}
	for _, c := range [...]*geom.Coords{&snap.Pos, &snap.Vel} {
		for k := 0; k < snap.D; k++ {
			xs := make([]float64, snap.N)
			for i := range xs {
				xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
			}
			c[k], p = xs, p[8*snap.N:]
		}
	}
	return snap, nil
}

// SaveFile writes the snapshot to a file crash-safely: the bytes go to
// a temporary file in the same directory, are fsynced, and only then
// renamed over the target; finally the containing directory is fsynced
// so the rename itself reaches stable storage. A crash at any point
// leaves either the previous checkpoint (if any) or the complete new
// one — the target path never holds a partial write. The directory
// sync is the half of the contract the rename alone does not give:
// on journalling filesystems with delayed allocation a crash shortly
// after rename(2) can otherwise surface the new name with truncated
// (even empty) contents, which is exactly the torn state the atomic
// dance exists to rule out.
func SaveFile(path string, s *Snapshot) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = Save(f, s); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory, making a just-completed rename durable.
// Filesystems that refuse to sync directories (some network mounts
// return EINVAL/ENOTSUP) degrade to the pre-sync behaviour rather than
// failing the caller: the data file itself is already synced, only
// the rename's durability window remains. Exported because the same
// temp-write/fsync/rename/dir-sync dance backs the server's job
// journal, not just checkpoint files.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}

// LoadFile reads a snapshot from a file.
func LoadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
