package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybriddem/internal/checkpoint"
	"hybriddem/internal/geom"
)

// TestRunPeriodicCheckpointMatchesUnbroken: -checkpoint-every chains
// chunked runs through the checkpoint file; the final state must match
// one unbroken run of the same total length, and the file must hold
// the cumulative iteration count.
func TestRunPeriodicCheckpointMatchesUnbroken(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.ck")
	periodic := filepath.Join(dir, "periodic.ck")
	base := []string{"-d", "2", "-n", "300", "-warmup", "1", "-vel", "1"}
	runOK := func(extra ...string) string {
		t.Helper()
		var out, errb bytes.Buffer
		if code := run(append(append([]string{}, base...), extra...), &out, &errb); code != 0 {
			t.Fatalf("%v: exit %d: %s", extra, code, errb.String())
		}
		return out.String()
	}
	runOK("-iters", "6", "-save", full)
	out := runOK("-iters", "6", "-save", periodic, "-checkpoint-every", "2")
	if !strings.Contains(out, "(every 2 iterations)") {
		t.Errorf("periodic run did not report its cadence:\n%s", out)
	}

	want, err := checkpoint.LoadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	got, err := checkpoint.LoadFile(periodic)
	if err != nil {
		t.Fatal(err)
	}
	if want.Iters != 6 || got.Iters != 6 {
		t.Fatalf("cumulative counts: unbroken %d, periodic %d, want 6", want.Iters, got.Iters)
	}
	box := geom.NewBox(2, want.L, want.BC)
	maxd := 0.0
	for i := 0; i < want.N; i++ {
		if d := math.Sqrt(box.Dist2(want.Pos.At(i, want.D), got.Pos.At(i, want.D))); d > maxd {
			maxd = d
		}
	}
	if maxd > 1e-8 {
		t.Errorf("periodically checkpointed run deviates by %g", maxd)
	}
}

// TestRunPeriodicCheckpointResumes: -checkpoint-every composes with
// -load — the resumed leg continues the cumulative count.
func TestRunPeriodicCheckpointResumes(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "state.ck")
	var out, errb bytes.Buffer
	if code := run([]string{"-d", "2", "-n", "300", "-iters", "4", "-save", ck, "-checkpoint-every", "2"}, &out, &errb); code != 0 {
		t.Fatalf("first leg exit %d: %s", code, errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-d", "2", "-n", "300", "-iters", "8", "-load", ck, "-save", ck, "-checkpoint-every", "3"}, &out, &errb); code != 0 {
		t.Fatalf("resumed leg exit %d: %s", code, errb.String())
	}
	snap, err := checkpoint.LoadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Iters != 8 {
		t.Errorf("final checkpoint holds %d iterations, want the cumulative 8", snap.Iters)
	}
}

func TestRunCheckpointEveryNeedsSave(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-d", "2", "-n", "300", "-iters", "4", "-checkpoint-every", "2"}, &out, &errb); code != 2 {
		t.Errorf("exit %d, want usage error 2: %s", code, errb.String())
	}
}

// TestRunChaosFaultExitsThree: an injected fault with no supervisor is
// unrecoverable and must exit 3, distinct from plain errors.
func TestRunChaosFaultExitsThree(t *testing.T) {
	for _, extra := range [][]string{
		{"-chaos-kill", "1@2"},
		{"-chaos-corrupt", "1", "-chaos-max", "1"},
	} {
		args := append([]string{"-d", "2", "-n", "400", "-mode", "mpi", "-p", "2", "-iters", "4"}, extra...)
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 3 {
			t.Errorf("%v: exit %d, want 3 (stderr: %s)", extra, code, errb.String())
		}
		if !strings.Contains(errb.String(), "fault:") {
			t.Errorf("%v: stderr does not describe the fault: %s", extra, errb.String())
		}
	}
}

// TestRunSuperviseRecoversFromKill: the same kill under -supervise
// recovers (exit 0) and the final state matches an unfaulted run.
func TestRunSuperviseRecoversFromKill(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.ck")
	chaos := filepath.Join(dir, "chaos.ck")
	base := []string{"-d", "2", "-n", "400", "-mode", "mpi", "-p", "2", "-iters", "6"}
	var out, errb bytes.Buffer
	if code := run(append(append([]string{}, base...), "-save", clean), &out, &errb); code != 0 {
		t.Fatalf("clean run exit %d: %s", code, errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run(append(append([]string{}, base...),
		"-save", chaos, "-supervise", "-chaos-kill", "1@3"), &out, &errb); code != 0 {
		t.Fatalf("supervised chaos run exit %d: %s", code, errb.String())
	}
	want, err := checkpoint.LoadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	got, err := checkpoint.LoadFile(chaos)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < want.N; i++ {
		if want.Pos.At(i, want.D) != got.Pos.At(i, want.D) || want.Vel.At(i, want.D) != got.Vel.At(i, want.D) {
			t.Fatalf("particle %d differs after recovery: %v vs %v", i, want.Pos.At(i, want.D), got.Pos.At(i, want.D))
		}
	}
}

func TestRunBadChaosKillExitsTwo(t *testing.T) {
	for _, kill := range []string{"nope", "1@", "@2", "-1@3", "1@-3"} {
		var out, errb bytes.Buffer
		args := []string{"-d", "2", "-n", "300", "-mode", "mpi", "-p", "2", "-chaos-kill", kill}
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("-chaos-kill %q: exit %d, want 2", kill, code)
		}
	}
}

// TestRunChunkedIsOneRun: a -checkpoint-every run is one session, not
// a chain of runs. Its summary covers all of it (no chunk is reported
// as "restored"), and since checkpoint boundaries sit on absolute
// multiples of the cadence, a run interrupted at 4 and resumed with
// -load revisits the boundary at 6 the unbroken run does and writes
// the same final checkpoint, byte for byte.
func TestRunChunkedIsOneRun(t *testing.T) {
	dir := t.TempDir()
	unbroken, resumed := filepath.Join(dir, "unbroken.ck"), filepath.Join(dir, "resumed.ck")
	runOK := func(args ...string) string {
		t.Helper()
		var out, errb bytes.Buffer
		args = append([]string{"-d", "2", "-n", "300", "-warmup", "1", "-vel", "1", "-checkpoint-every", "3"}, args...)
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, errb.String())
		}
		return out.String()
	}
	if out := runOK("-iters", "8", "-save", unbroken); !strings.Contains(out, "iterations      8 measured after 1 warm-up") {
		t.Errorf("chunked run does not report its 8 iterations as one run:\n%s", out)
	}
	runOK("-iters", "4", "-save", resumed)
	if out := runOK("-iters", "8", "-load", resumed, "-save", resumed); !strings.Contains(out, "8 cumulative (4 restored + 4 new)") {
		t.Errorf("resumed chunked run does not report 4 restored + 4 new:\n%s", out)
	}
	want, err := os.ReadFile(unbroken)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("interrupted-and-resumed chunked run wrote a different final checkpoint than the unbroken one")
	}
}
