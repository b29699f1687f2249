package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hybriddem/internal/checkpoint"
)

// newDurable builds a Server (no listener — these tests drive the API
// directly) over the given data dir and tears it down with the test.
func newDurable(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

// waitTerminal polls until the job leaves the live states, returning
// its final status.
func waitTerminal(t *testing.T, s *Server, id string) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp := s.Status(id)
		if !resp.OK {
			t.Fatalf("status %s: %s", id, resp.Error)
		}
		switch resp.Job.State {
		case "done", "canceled", "failed":
			return resp.Job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, resp.Job.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// compareCk loads two checkpoint files and fails unless positions and
// velocities match bit for bit.
func compareCk(t *testing.T, refPath, gotPath string) {
	t.Helper()
	want, err := checkpoint.LoadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := checkpoint.LoadFile(gotPath)
	if err != nil {
		t.Fatal(err)
	}
	if want.Iters != got.Iters || want.N != got.N {
		t.Fatalf("checkpoint shapes differ: %d iters/%d particles vs %d/%d",
			want.Iters, want.N, got.Iters, got.N)
	}
	for i := 0; i < want.N; i++ {
		wp, gp := want.Pos.At(i, want.D), got.Pos.At(i, want.D)
		wv, gv := want.Vel.At(i, want.D), got.Vel.At(i, want.D)
		for k := 0; k < want.D; k++ {
			if wp[k] != gp[k] || wv[k] != gv[k] {
				t.Fatalf("particle %d component %d differs: pos %v vs %v, vel %v vs %v",
					i, k, wp[k], gp[k], wv[k], gv[k])
			}
		}
	}
}

// TestRecoveryResumeBitExact is the crash-recovery acceptance check: a
// daemon that dies mid-job (journal frozen exactly as kill -9 would
// leave it) restarts on the same data dir, re-adopts the job, resumes
// it from the last durable checkpoint, and the final state is bit-for-
// bit the state a never-crashed daemon of the same configuration
// produces.
func TestRecoveryResumeBitExact(t *testing.T) {
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "data")

	// Lively spec so the link list rebuilds often. The total is
	// generous so the crash provably lands mid-run on any machine.
	const total = 8000
	spec := JobSpec{D: 2, N: 300, Iters: total, Warm: 1, Vel: 4, RC: 1.2,
		CheckpointEvery: 25}

	// Reference: an unbroken run on its own durable daemon.
	ref := newDurable(t, Options{Workers: 1, DataDir: filepath.Join(dir, "refdata")})
	refSpec := spec
	refSpec.Checkpoint = filepath.Join(dir, "ref.ck")
	rr := ref.Submit(&refSpec)
	if !rr.OK {
		t.Fatalf("submit reference: %s", rr.Error)
	}
	if st := waitTerminal(t, ref, rr.ID); st.State != "done" {
		t.Fatalf("reference ended %s: %s", st.State, st.Error)
	}

	// Victim: a durable server crashed mid-run.
	s1, err := New(Options{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	vSpec := spec
	vSpec.Checkpoint = filepath.Join(dir, "victim.ck")
	rv := s1.Submit(&vSpec)
	if !rv.OK {
		t.Fatalf("submit victim: %s", rv.Error)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := s1.Status(rv.ID).Job
		if st.State == "running" && st.ItersDone >= 100 {
			break
		}
		if st.State == "done" {
			t.Fatal("victim finished before the crash; raise Iters")
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never reached 100 iterations (state %s, %d done)", st.State, st.ItersDone)
		}
		time.Sleep(time.Millisecond)
	}
	s1.crash()

	// Restart on the same data dir: the journal replays, the job comes
	// back queued+recovered and runs to completion.
	s2 := newDurable(t, Options{Workers: 1, DataDir: dataDir})
	if st := s2.ServerStats().Stats; st.Recovered != 1 {
		t.Fatalf("restarted server recovered %d jobs, want 1", st.Recovered)
	}
	fin := waitTerminal(t, s2, rv.ID)
	if fin.State != "done" {
		t.Fatalf("recovered job ended %s: %s", fin.State, fin.Error)
	}
	if !fin.Recovered {
		t.Fatal("recovered job does not report Recovered")
	}
	if fin.ItersDone != total {
		t.Fatalf("recovered job finished at %d iterations, want %d", fin.ItersDone, total)
	}

	// Job ids stay monotonic across the restart: the journal carries the
	// high-water mark, so the next submission cannot reuse the dead
	// incarnation's id.
	rn := s2.Submit(&JobSpec{D: 2, N: 50, Iters: 2})
	if !rn.OK {
		t.Fatalf("post-restart submit: %s", rn.Error)
	}
	if rn.ID == rv.ID || rn.ID != fmt.Sprintf("j%d", 2) {
		t.Fatalf("post-restart submit got id %s after %s; ids must stay monotonic", rn.ID, rv.ID)
	}
	waitTerminal(t, s2, rn.ID)

	compareCk(t, refSpec.Checkpoint, vSpec.Checkpoint)
}

// TestRecoveryRequeuesQueuedJobs: jobs that were still queued when the
// daemon died are re-enqueued on restart in submission order, behind
// the interrupted running job.
func TestRecoveryRequeuesQueuedJobs(t *testing.T) {
	dataDir := t.TempDir()
	s1, err := New(Options{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	blocker := s1.Submit(&JobSpec{D: 2, N: 400, Iters: 500000})
	if !blocker.OK {
		t.Fatalf("submit blocker: %s", blocker.Error)
	}
	var queued []string
	for i := 0; i < 2; i++ {
		r := s1.Submit(&JobSpec{D: 2, N: 60, Iters: 3})
		if !r.OK {
			t.Fatalf("submit queued %d: %s", i, r.Error)
		}
		queued = append(queued, r.ID)
	}
	waitState(t, s1, blocker.ID, "running")
	s1.crash()

	s2 := newDurable(t, Options{Workers: 1, DataDir: dataDir})
	if st := s2.ServerStats().Stats; st.Recovered != 3 {
		t.Fatalf("recovered %d jobs, want 3", st.Recovered)
	}
	// The blocker resumed first (single worker); cancel it so the two
	// short jobs behind it get the worker and finish.
	if r := s2.Cancel(blocker.ID); !r.OK {
		t.Fatalf("cancel blocker: %s", r.Error)
	}
	for _, id := range queued {
		if st := waitTerminal(t, s2, id); st.State != "done" {
			t.Fatalf("requeued job %s ended %s: %s", id, st.State, st.Error)
		}
	}
}

// TestRecoveryHonorsDurableCancel: a cancel whose intent reached the
// journal but whose state transition did not (daemon died in between)
// still cancels on recovery — the job must not rise from the dead and
// run.
func TestRecoveryHonorsDurableCancel(t *testing.T) {
	dataDir := t.TempDir()
	s1, err := New(Options{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	blocker := s1.Submit(&JobSpec{D: 2, N: 400, Iters: 500000})
	if !blocker.OK {
		t.Fatalf("submit blocker: %s", blocker.Error)
	}
	victim := s1.Submit(&JobSpec{D: 2, N: 60, Iters: 3})
	if !victim.OK {
		t.Fatalf("submit victim: %s", victim.Error)
	}
	waitState(t, s1, blocker.ID, "running")
	if r := s1.Cancel(victim.ID); !r.OK {
		t.Fatalf("cancel: %s", r.Error)
	}
	s1.crash()

	s2 := newDurable(t, Options{Workers: 1, DataDir: dataDir})
	st := s2.Status(victim.ID)
	if !st.OK || st.Job.State != "canceled" {
		t.Fatalf("canceled-before-crash job recovered as %+v, want canceled", st.Job)
	}
	if recov := s2.ServerStats().Stats.Recovered; recov != 1 {
		t.Fatalf("recovered %d jobs, want 1 (the blocker only)", recov)
	}
}

// TestRetryTransientFaultCompletes: a chaos-killed rank fails the
// attempt (single-rank MPI cannot degrade), the server retries after
// backoff, the shared fault plan has already fired, and the clean
// second attempt completes bit-exactly against an unfaulted reference.
func TestRetryTransientFaultCompletes(t *testing.T) {
	dir := t.TempDir()
	s := newDurable(t, Options{
		Workers: 1, DataDir: filepath.Join(dir, "data"),
		RetryBackoff: 2 * time.Millisecond,
	})

	spec := JobSpec{D: 2, N: 100, Iters: 60, Mode: "mpi", P: 1,
		CheckpointEvery: 20}

	refSpec := spec
	refSpec.Checkpoint = filepath.Join(dir, "ref.ck")
	rr := s.Submit(&refSpec)
	if !rr.OK {
		t.Fatalf("submit reference: %s", rr.Error)
	}
	if st := waitTerminal(t, s, rr.ID); st.State != "done" {
		t.Fatalf("reference ended %s: %s", st.State, st.Error)
	}

	faulted := spec
	faulted.Checkpoint = filepath.Join(dir, "faulted.ck")
	faulted.ChaosKill = "0@10"
	rf := s.Submit(&faulted)
	if !rf.OK {
		t.Fatalf("submit faulted: %s", rf.Error)
	}
	fin := waitTerminal(t, s, rf.ID)
	if fin.State != "done" {
		t.Fatalf("faulted job ended %s: %s", fin.State, fin.Error)
	}
	if fin.Restarts != 1 {
		t.Fatalf("faulted job consumed %d restarts, want exactly 1", fin.Restarts)
	}
	if fin.ItersDone != spec.Iters {
		t.Fatalf("faulted job finished at %d iterations, want %d", fin.ItersDone, spec.Iters)
	}
	if st := s.ServerStats().Stats; st.Retried != 1 {
		t.Fatalf("stats.Retried = %d, want 1", st.Retried)
	}
	compareCk(t, refSpec.Checkpoint, faulted.Checkpoint)
}

// TestRestartBudgetSurvivesRestart: the consumed restart count is
// journaled, so a daemon restart cannot refill a job's retry budget. A
// persistent fault (fresh kill every attempt) drains the remaining
// budget after recovery and the job lands failed with the fault class
// in its error.
func TestRestartBudgetSurvivesRestart(t *testing.T) {
	dataDir := t.TempDir()
	spec := JobSpec{D: 2, N: 100, Iters: 60, Mode: "mpi", P: 1,
		MaxRestarts: 3, ChaosKill: "0@10", ChaosEveryAttempt: true}

	// Incarnation 1: a huge backoff parks the job in its first retry
	// wait with one restart consumed and journaled.
	s1, err := New(Options{Workers: 1, DataDir: dataDir, RetryBackoff: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	r := s1.Submit(&spec)
	if !r.OK {
		t.Fatalf("submit: %s", r.Error)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := s1.Status(r.ID).Job
		if st.State == "queued" && st.Restarts == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never parked in backoff (state %s, restarts %d)", st.State, st.Restarts)
		}
		time.Sleep(time.Millisecond)
	}
	s1.crash()

	// Incarnation 2: short backoff; the remaining 2 restarts drain and
	// the job must fail — 3 was the budget, restart or not.
	s2 := newDurable(t, Options{Workers: 1, DataDir: dataDir, RetryBackoff: 2 * time.Millisecond})
	fin := waitTerminal(t, s2, r.ID)
	if fin.State != "failed" {
		t.Fatalf("persistently faulted job ended %s, want failed", fin.State)
	}
	if fin.Restarts != 3 {
		t.Fatalf("job consumed %d restarts across restarts, want exactly the budget 3", fin.Restarts)
	}
	if !strings.Contains(strings.ToLower(fin.Error), "kill") {
		t.Fatalf("terminal error %q does not carry the fault class", fin.Error)
	}
}

// TestDeadlineWallClock: a job over its wall-clock deadline fails —
// deadline overruns are not retryable — but still checkpoints what it
// had, and the worker is freed for the next job.
func TestDeadlineWallClock(t *testing.T) {
	dir := t.TempDir()
	s := newDurable(t, Options{Workers: 1})
	ck := filepath.Join(dir, "deadline.ck")
	r := s.Submit(&JobSpec{D: 2, N: 400, Iters: 500000, DeadlineMs: 300, Checkpoint: ck})
	if !r.OK {
		t.Fatalf("submit: %s", r.Error)
	}
	fin := waitTerminal(t, s, r.ID)
	if fin.State != "failed" || !strings.Contains(fin.Error, "deadline") {
		t.Fatalf("deadline job ended %s (%q), want failed with a deadline error", fin.State, fin.Error)
	}
	if fin.Restarts != 0 {
		t.Fatalf("deadline overrun was retried %d times; it must not be", fin.Restarts)
	}
	if fin.ItersDone <= 0 || fin.ItersDone >= 500000 {
		t.Fatalf("deadline fired after %d iterations, want mid-run", fin.ItersDone)
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("deadline-failed job left no checkpoint: %v", err)
	}
	next := s.Submit(&JobSpec{D: 2, N: 60, Iters: 3})
	if !next.OK {
		t.Fatalf("submit after deadline: %s", next.Error)
	}
	if st := waitTerminal(t, s, next.ID); st.State != "done" {
		t.Fatalf("worker not freed after deadline kill: next job %s", st.State)
	}
}

// TestDeadlineShortChunks: a deadline that trips inside one of many
// short durable chunks stops the job there, at the step it trips, and
// does not let it run on chunk after chunk to completion.
func TestDeadlineShortChunks(t *testing.T) {
	s := newDurable(t, Options{Workers: 1, CheckpointEvery: 20})
	r := s.Submit(&JobSpec{D: 2, N: 400, Iters: 500000, DeadlineMs: 300})
	if !r.OK {
		t.Fatalf("submit: %s", r.Error)
	}
	fin := waitTerminal(t, s, r.ID)
	if fin.State != "failed" || !strings.Contains(fin.Error, "deadline") {
		t.Fatalf("deadline job ended %s (%q) after %d iterations, want failed with a deadline error",
			fin.State, fin.Error, fin.ItersDone)
	}
	if fin.ItersDone >= 500000 {
		t.Fatalf("job ran to completion (%d iterations) past its deadline", fin.ItersDone)
	}
}

// TestProgressFloorStalls: a job that cannot hold the requested
// steps/s floor is stopped and — with retries disabled — fails with
// the stall classification.
func TestProgressFloorStalls(t *testing.T) {
	s := newDurable(t, Options{Workers: 1})
	r := s.Submit(&JobSpec{D: 2, N: 400, Iters: 500000,
		MinStepsPerS: 1e12, StallWindowMs: 50, MaxRestarts: -1})
	if !r.OK {
		t.Fatalf("submit: %s", r.Error)
	}
	fin := waitTerminal(t, s, r.ID)
	if fin.State != "failed" || !strings.Contains(fin.Error, "progress") {
		t.Fatalf("stalled job ended %s (%q), want failed with a progress error", fin.State, fin.Error)
	}
	if st := s.ServerStats().Stats; st.Retried != 0 {
		t.Fatalf("stall with MaxRestarts=-1 was retried %d times", st.Retried)
	}
}

// TestLifecycleValidation rejects nonsensical durability fields and
// chaos specs on non-distributed modes at the door.
func TestLifecycleValidation(t *testing.T) {
	s := newDurable(t, Options{})
	for name, spec := range map[string]*JobSpec{
		"negative deadline":    {N: 100, Iters: 5, DeadlineMs: -1},
		"negative stall":       {N: 100, Iters: 5, StallWindowMs: -1},
		"negative floor":       {N: 100, Iters: 5, MinStepsPerS: -2},
		"negative watchdog":    {N: 100, Iters: 5, WatchdogMs: -1},
		"negative ck cadence":  {N: 100, Iters: 5, CheckpointEvery: -1},
		"chaos bad syntax":     {N: 100, Iters: 5, Mode: "mpi", ChaosKill: "nope"},
		"chaos negative rank":  {N: 100, Iters: 5, Mode: "mpi", ChaosKill: "-1@5"},
		"chaos on serial mode": {N: 100, Iters: 5, ChaosKill: "0@5"},
		"chaos on openmp":      {N: 100, Iters: 5, Mode: "openmp", ChaosKill: "0@5"},
	} {
		if r := s.Submit(spec); r.OK {
			t.Errorf("%s: accepted", name)
		}
	}
	if st := s.ServerStats().Stats; st.Rejected != 9 {
		t.Errorf("rejected counter = %d, want 9", st.Rejected)
	}
}

// runToDone submits spec and fails unless the job ends done.
func runToDone(t *testing.T, s *Server, spec JobSpec) *JobStatus {
	t.Helper()
	r := s.Submit(&spec)
	if !r.OK {
		t.Fatalf("submit: %s", r.Error)
	}
	st := waitTerminal(t, s, r.ID)
	if st.State != "done" {
		t.Fatalf("job %s ended %s: %s", r.ID, st.State, st.Error)
	}
	return st
}

// sameBytes fails unless the two files are byte-identical.
func sameBytes(t *testing.T, wantPath, gotPath string) {
	t.Helper()
	want, err := os.ReadFile(wantPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(gotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("%s and %s differ", wantPath, gotPath)
	}
}

// TestChaosKillPastTheCadenceFires: fault points count cumulative
// iterations, not iterations of the current chunk, so a kill scheduled
// beyond the checkpoint cadence fires (when every chunk restarted the
// numbering at 0, step 30 of a 20-step chunk never came and the job
// ended done with no restart). The retry resumes from the durable
// checkpoint at 20 and lands on the unfaulted job's bytes.
func TestChaosKillPastTheCadenceFires(t *testing.T) {
	dir := t.TempDir()
	s := newDurable(t, Options{
		Workers: 1, DataDir: filepath.Join(dir, "data"),
		RetryBackoff: 2 * time.Millisecond,
	})
	spec := JobSpec{D: 2, N: 100, Iters: 60, Mode: "mpi", P: 1, CheckpointEvery: 20}

	ref := spec
	ref.Checkpoint = filepath.Join(dir, "ref.ck")
	runToDone(t, s, ref)

	faulted := spec
	faulted.Checkpoint = filepath.Join(dir, "faulted.ck")
	faulted.ChaosKill = "0@30"
	if fin := runToDone(t, s, faulted); fin.Restarts != 1 || fin.ItersDone != spec.Iters {
		t.Fatalf("faulted job: %d restarts, %d iterations; want exactly 1 restart and %d iterations",
			fin.Restarts, fin.ItersDone, spec.Iters)
	}
	sameBytes(t, ref.Checkpoint, faulted.Checkpoint)
}

// TestChunkedJobEqualsChainedJobs: a durable job that checkpoints every
// 20 iterations and continues in place ends on the bytes of the same
// run made as three separate jobs chained through checkpoint/load at
// 20 and 40 — tear-down, checkpoint file, fresh set-up at every
// boundary — and of the same run made in one piece, with no durable
// checkpoint on the way. Cache reordering is on and the bed is dense
// and 3-D, where storing the particles in any other order than the
// run that wrote the checkpoint shows in the last bit.
func TestChunkedJobEqualsChainedJobs(t *testing.T) {
	for name, mode := range map[string]JobSpec{
		"serial": {},
		"openmp": {Mode: "openmp", T: 1},
		"mpi":    {Mode: "mpi", P: 2, BPP: 2},
		"hybrid": {Mode: "hybrid", P: 2, T: 1},
		"mpism":  {Mode: "mpism", P: 2},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := newDurable(t, Options{Workers: 1, DataDir: filepath.Join(dir, "data")})
			spec := mode
			spec.D, spec.N, spec.Warm = 3, 1500, 1
			spec.Vel, spec.RC, spec.Fill, spec.Grav = 4, 1.2, 0.5, -20
			spec.CheckpointEvery = 20

			chunked := spec
			chunked.Iters, chunked.Checkpoint = 60, filepath.Join(dir, "chunked.ck")
			runToDone(t, s, chunked)

			link := spec
			for _, total := range []int{20, 40, 60} {
				link.Iters, link.Checkpoint = total, filepath.Join(dir, fmt.Sprintf("link%d.ck", total))
				runToDone(t, s, link)
				link.Load = link.Checkpoint
			}
			sameBytes(t, link.Checkpoint, chunked.Checkpoint)

			whole := spec
			whole.CheckpointEvery = 0
			whole.Iters, whole.Checkpoint = 60, filepath.Join(dir, "whole.ck")
			runToDone(t, s, whole)
			sameBytes(t, whole.Checkpoint, chunked.Checkpoint)
		})
	}
}

// TestClientCheckpointIsTheDurableOne: a job with a durable dir and a
// checkpoint path of its own ends with one snapshot written to both —
// the daemon's file and the client's hold the same bytes — when it runs
// to the end and when it is canceled on the way.
func TestClientCheckpointIsTheDurableOne(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	s := newDurable(t, Options{Workers: 1, DataDir: data})
	spec := JobSpec{D: 2, N: 400, Mode: "mpi", P: 2, Vel: 2, CheckpointEvery: 7}

	done := spec
	done.Iters, done.Checkpoint = 30, filepath.Join(dir, "done.ck")
	st := runToDone(t, s, done)
	sameBytes(t, filepath.Join(data, "jobs", st.ID+".ck"), done.Checkpoint)

	cut := spec
	cut.Iters, cut.Checkpoint = 1_000_000, filepath.Join(dir, "cut.ck")
	r := s.Submit(&cut)
	if !r.OK {
		t.Fatalf("submit: %s", r.Error)
	}
	for s.Status(r.ID).Job.ItersDone < 10 {
		time.Sleep(time.Millisecond)
	}
	s.Cancel(r.ID)
	if fin := waitTerminal(t, s, r.ID); fin.State != "canceled" || fin.Checkpoint != cut.Checkpoint {
		t.Fatalf("canceled job ended %s with checkpoint %q", fin.State, fin.Checkpoint)
	}
	sameBytes(t, filepath.Join(data, "jobs", r.ID+".ck"), cut.Checkpoint)
	if snap, err := checkpoint.LoadFile(cut.Checkpoint); err != nil || snap.Iters < 10 {
		t.Fatalf("canceled job's checkpoint: %v, %+v iterations", err, snap)
	}
}

// TestOldFormatDurableCheckpointFallsBack: a durable checkpoint left by
// a daemon that still wrote the gob frame is not read; the job logs
// why, re-runs from its spec and ends on the bytes of a job that never
// had one.
func TestOldFormatDurableCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var logged []string
	s := newDurable(t, Options{Workers: 1, DataDir: filepath.Join(dir, "data"), Logf: func(f string, a ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(f, a...))
		mu.Unlock()
	}})
	old := append([]byte("HYDEMCK1"), make([]byte, 300)...)
	if err := os.WriteFile(filepath.Join(dir, "data", "jobs", "j1.ck"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{D: 2, N: 300, Iters: 12, CheckpointEvery: 5}
	first := spec
	first.Checkpoint = filepath.Join(dir, "first.ck")
	if st := runToDone(t, s, first); st.ID != "j1" {
		t.Fatalf("the first job is %s, the planted file was for j1", st.ID)
	}
	clean := spec
	clean.Checkpoint = filepath.Join(dir, "clean.ck")
	runToDone(t, s, clean)
	sameBytes(t, clean.Checkpoint, first.Checkpoint)
	mu.Lock()
	defer mu.Unlock()
	for _, line := range logged {
		if strings.Contains(line, "durable checkpoint unusable") && strings.Contains(line, "HYDEMCK1") {
			return
		}
	}
	t.Errorf("no log line names the old format: %q", logged)
}
