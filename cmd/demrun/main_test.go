package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"hybriddem/internal/checkpoint"
	"hybriddem/internal/geom"
)

func TestRunSerialSmoke(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-d", "2", "-n", "400", "-iters", "3", "-warmup", "1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"mode", "system", "energy", "counters"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestRunAllModesSmoke(t *testing.T) {
	for _, args := range [][]string{
		{"-d", "2", "-n", "400", "-mode", "openmp", "-t", "2", "-iters", "2"},
		{"-d", "2", "-n", "400", "-mode", "mpi", "-p", "2", "-bpp", "2", "-iters", "2"},
		{"-d", "2", "-n", "400", "-mode", "hybrid", "-p", "2", "-t", "2", "-iters", "2", "-method", "stripe"},
		{"-d", "2", "-n", "400", "-mode", "serial", "-walls", "-gravity", "-10", "-fill", "0.3", "-iters", "2"},
		{"-d", "2", "-n", "400", "-mode", "mpi", "-p", "2", "-bpp", "4", "-iters", "2",
			"-rebalance", "-walls", "-gravity", "-10", "-fill", "0.3"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 0 {
			t.Errorf("%v: exit %d, stderr: %s", args, code, errb.String())
		}
	}
}

func TestRunVerifyFlag(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-d", "2", "-n", "200", "-iters", "3", "-verify"}, &out, &errb)
	if code != 0 {
		t.Fatalf("-verify exit %d, stderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "all 47 variants agree") {
		t.Errorf("conformance report missing verdict:\n%s", out.String())
	}
}

func TestRunCheckpointRoundTrip(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "state.ck")
	var out, errb bytes.Buffer
	if code := run([]string{"-d", "2", "-n", "400", "-iters", "2", "-save", ck}, &out, &errb); code != 0 {
		t.Fatalf("save exit %d: %s", code, errb.String())
	}
	out.Reset()
	errb.Reset()
	// -iters is cumulative: the checkpoint holds 2 iterations, so
	// resuming towards a total of 4 runs 2 more.
	if code := run([]string{"-d", "2", "-n", "400", "-iters", "4", "-load", ck}, &out, &errb); code != 0 {
		t.Fatalf("load exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "4 cumulative (2 restored + 2 new)") {
		t.Errorf("resume did not report cumulative iterations:\n%s", out.String())
	}
	out.Reset()
	errb.Reset()
	// A total at or below the checkpoint's progress leaves nothing to
	// run and must be refused.
	if code := run([]string{"-d", "2", "-n", "400", "-iters", "2", "-load", ck}, &out, &errb); code != 2 {
		t.Errorf("exhausted resume exit %d, want 2: %s", code, errb.String())
	}
}

// TestRunResumeMatchesUnbrokenRun: "run 3, save, load, run to 6" must
// land on the same state as one unbroken 6-iteration run. This guards
// the -load accounting: before -iters became cumulative, the resumed
// leg re-ran the full count (and re-warmed), overshooting the
// requested trajectory.
func TestRunResumeMatchesUnbrokenRun(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.ck")
	half := filepath.Join(dir, "half.ck")
	resumed := filepath.Join(dir, "resumed.ck")
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
	runOK("-iters", "3", "-save", half)
	runOK("-iters", "6", "-load", half, "-save", resumed)

	want, err := checkpoint.LoadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	got, err := checkpoint.LoadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if want.Iters != 6 || got.Iters != 6 {
		t.Fatalf("cumulative iteration counts: unbroken %d, resumed %d, want 6", want.Iters, got.Iters)
	}
	box := geom.NewBox(2, want.L, want.BC)
	maxd := 0.0
	for i := 0; i < want.N; i++ {
		if d := math.Sqrt(box.Dist2(want.Pos.At(i, want.D), got.Pos.At(i, want.D))); d > maxd {
			maxd = d
		}
	}
	if maxd > 1e-8 {
		t.Errorf("resumed run deviates from the unbroken run by %g", maxd)
	}
}

// TestRunRebalanceFlagForms pins the strategy flag's surface: bare
// -rebalance keeps its historical boolean meaning (LPT), explicit
// strategy names select ORB or switch balancing off, and the run
// summary echoes the strategy by name.
func TestRunRebalanceFlagForms(t *testing.T) {
	base := []string{"-d", "2", "-n", "400", "-mode", "mpi", "-p", "2", "-bpp", "4", "-iters", "2"}
	cases := []struct {
		name string
		args []string
		want string // substring of the mode line; "" = no rebalance suffix
	}{
		{"default-off", base, ""},
		{"bare-flag-is-lpt", append([]string{"-rebalance"}, base...), "rebalance=lpt"},
		{"explicit-lpt", append([]string{"-rebalance=lpt"}, base...), "rebalance=lpt"},
		{"explicit-orb", append([]string{"-rebalance=orb"}, base...), "rebalance=orb"},
		{"explicit-off", append([]string{"-rebalance=off"}, base...), ""},
		{"bool-false", append([]string{"-rebalance=false"}, base...), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, errb.String())
			}
			if tc.want == "" {
				if strings.Contains(out.String(), "rebalance") {
					t.Errorf("summary mentions rebalance for %v:\n%s", tc.args, out.String())
				}
			} else if !strings.Contains(out.String(), tc.want) {
				t.Errorf("summary lacks %q for %v:\n%s", tc.want, tc.args, out.String())
			}
		})
	}
}

func TestRunBadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "cuda"},
		{"-method", "mutex"},
		{"-platform", "PDP11"},
		{"-rebalance=bogus"},
		{"-definitely-not-a-flag"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestRunFusedRejectsReductionMethod: the fused hybrid loop with an
// array reduction is refused before any rank starts — exit 1, the
// reason and the allowed methods on stderr — instead of panicking
// inside the first rebuild.
func TestRunFusedRejectsReductionMethod(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-d", "2", "-n", "2000", "-mode", "hybrid", "-p", "2", "-t", "2",
		"-fused", "-method", "stripe", "-iters", "3", "-platform", "none"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	msg := errb.String()
	if !strings.Contains(msg, "method stripe") || !strings.Contains(msg, "atomic | selected-atomic") {
		t.Errorf("stderr does not name the method and the allowed ones: %s", msg)
	}
	if strings.Contains(msg, "panic") || strings.Contains(msg, "goroutine") {
		t.Errorf("the run panicked: %s", msg)
	}
}
