package checkpoint

import (
	"bytes"
	"encoding/binary"
	"testing"

	"hybriddem/internal/core"
)

// fuzzSnapshot is the small real run both fuzzers start from.
func fuzzSnapshot(f *testing.F, n int, seed int64) *Snapshot {
	cfg := core.Default(2, n)
	cfg.Seed = seed
	cfg.CollectState = true
	res, err := core.Run(cfg, 2)
	if err != nil {
		f.Fatal(err)
	}
	snap, err := FromResult(&cfg, res, 2)
	if err != nil {
		f.Fatal(err)
	}
	return snap
}

// FuzzLoad: Load must never panic, whatever bytes it is handed — torn
// writes, bit rot, adversarial headers, random garbage. The seed
// corpus covers two valid checkpoints (free particles; bonds and a
// tree blob), systematic truncations and bit flips of them, and
// structurally hostile inputs (huge length field, wrong and old magic).
func FuzzLoad(f *testing.F) {
	valid := saved(f, fuzzSnapshot(f, 30, 5))
	small := smallSnapshot(f)
	full := saved(f, small)

	f.Add(valid)
	f.Add(full)
	f.Add([]byte{})
	f.Add(valid[:headerLen-1])
	f.Add(valid[:headerLen])
	f.Add(valid[:len(valid)/2])
	for _, cut := range sections(f, small) {
		f.Add(full[:cut])
	}
	f.Add([]byte("HYDEMCK2\xff\xff\xff\xff\xff\xff\xff\xff\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("HYDEMCK2\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00")) // 4 GiB promised
	f.Add([]byte("HYDEMCK1\x10\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("not a checkpoint at all"))
	for _, off := range []int{0, 9, 17, headerLen + 3, headerLen + scalarLen + 2} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 1
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data))
		if err != nil && s != nil {
			t.Fatal("Load returned both a snapshot and an error")
		}
		if err == nil && s == nil {
			t.Fatal("Load returned neither a snapshot nor an error")
		}
		if err == nil && s.Bonds == nil {
			// The layout has one spelling of a snapshot (a bond table's
			// gob may have several): what loads, Save writes back.
			if again := saved(t, s); !bytes.Equal(again, data[:len(again)]) {
				t.Fatal("Load accepted bytes that Save does not reproduce")
			}
		}
	})
}

// FuzzApplyDecodedSnapshot hardens the layer behind the checksum: a
// payload that passes the frame check can still describe a snapshot
// that is wrong — a dimension or count that does not match its arrays,
// blob lengths that run past the end, a bond table or ORB tree of
// garbage, populated fields a configuration disagrees with. Load or
// Apply must reject every such shape with an error; the gather into
// cfg.Init must never index out of range. The fuzzer mutates the
// payload of a valid checkpoint (reframing it so Load's checksum
// passes) and replays Load+Apply.
func FuzzApplyDecodedSnapshot(f *testing.F) {
	payload := saved(f, fuzzSnapshot(f, 24, 11))[headerLen:]

	f.Add(append([]byte(nil), payload...))
	// Seed a few structured mutations: truncated tails tear the state
	// arrays mid-slice, single-byte flips corrupt the counts and the
	// blob lengths, a grown count overruns the arrays.
	f.Add(payload[:len(payload)-9])
	f.Add(payload[:scalarLen+16])
	for _, off := range []int{0, 8, scalarLen, scalarLen + 8, len(payload) / 2, len(payload) - 40} {
		mut := append([]byte(nil), payload...)
		mut[off] ^= 0x40
		f.Add(mut)
	}
	grown := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint64(grown[8:], 1<<59+24)
	f.Add(grown)
	f.Add(saved(f, smallSnapshot(f))[headerLen:])

	f.Fuzz(func(t *testing.T, body []byte) {
		// Reframe so the mutated payload reaches the decoder.
		s, err := Load(bytes.NewReader(frame(body)))
		if err != nil {
			return // the layout checks rejected the mutation, as designed
		}
		applyCfg := core.Default(2, 24)
		applyCfg.Seed = 11
		if err := s.Apply(&applyCfg); err != nil {
			return // structural validation rejected it
		}
		// An accepted snapshot must have produced a full, well-formed
		// initial state.
		if applyCfg.Init == nil || len(applyCfg.Init.Pos) != applyCfg.N || len(applyCfg.Init.Vel) != applyCfg.N {
			t.Fatalf("Apply accepted a snapshot but built state with %d/%d particles",
				len(applyCfg.Init.Pos), len(applyCfg.Init.Vel))
		}
	})
}
