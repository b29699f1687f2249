package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"hybriddem/internal/checkpoint"
)

// TestRunInterruptSavesCheckpoint sends demrun a real SIGINT mid-run
// and checks the contract of exit code 4: the run stops at a step
// boundary, the partial state lands in the -save checkpoint, and
// resuming from it towards a larger cumulative -iters works.
func TestRunInterruptSavesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "partial.ck")

	// The iteration count is far beyond what could finish before the
	// signal lands; the armed channel guarantees the handler is
	// installed before the signal is sent.
	armed := make(chan struct{})
	testInterruptArmed = armed
	var out, errb bytes.Buffer
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-d", "2", "-n", "500", "-iters", "1000000", "-warmup", "1",
			"-vel", "1", "-save", ck}, &out, &errb)
	}()
	<-armed
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}

	var code int
	select {
	case code = <-exit:
	case <-time.After(60 * time.Second):
		t.Fatal("run did not stop after SIGINT")
	}
	if code != 4 {
		t.Fatalf("interrupted run exited %d, want 4\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "interrupted") {
		t.Errorf("summary lacks the interrupted line:\n%s", out.String())
	}

	snap, err := checkpoint.LoadFile(ck)
	if err != nil {
		t.Fatalf("interrupted run left no loadable checkpoint: %v", err)
	}
	if snap.Iters < 1 || snap.Iters >= 1000000 {
		t.Fatalf("checkpoint holds %d iterations, want a mid-run count", snap.Iters)
	}

	// The partial checkpoint resumes like any other: cumulative -iters
	// accounting picks up where the interrupt stopped.
	out.Reset()
	errb.Reset()
	total := snap.Iters + 2
	if code := run([]string{"-d", "2", "-n", "500", "-iters", strconv.Itoa(total), "-vel", "1",
		"-load", ck}, &out, &errb); code != 0 {
		t.Fatalf("resume exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "cumulative") {
		t.Errorf("resume did not report cumulative iterations:\n%s", out.String())
	}
}
