package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"hybriddem/internal/checkpoint"
	"hybriddem/internal/server"
)

// TestDaemonKill9Helper is not a test: re-exec'd by TestDaemonKill9Recovery
// as the daemon child that gets SIGKILLed. It runs the real demd entry
// point on the socket and data dir passed through the environment.
func TestDaemonKill9Helper(t *testing.T) {
	sock := os.Getenv("DEMD_KILL9_SOCK")
	if sock == "" {
		t.Skip("helper process for TestDaemonKill9Recovery")
	}
	run([]string{
		"-socket", sock,
		"-data-dir", os.Getenv("DEMD_KILL9_DATA"),
		"-workers", "1",
		"-checkpoint-every", "50",
		"-quiet",
	}, os.Stdout, os.Stderr)
}

// startDaemon runs the demd entry point in-process and returns a
// control connection plus a stopper that shuts it down over the wire.
func startDaemon(t *testing.T, args ...string) (*json.Encoder, *json.Decoder, func()) {
	t.Helper()
	var out, errb bytes.Buffer
	exit := make(chan int, 1)
	go func() { exit <- run(append([]string{"-quiet"}, args...), &out, &errb) }()
	sock := args[1] // args are "-socket", path, ...
	c := dialDaemon(t, sock)
	t.Cleanup(func() { c.Close() })
	enc, dec := json.NewEncoder(c), json.NewDecoder(c)
	stop := func() {
		roundTrip(t, enc, dec, server.Request{Cmd: "shutdown"})
		select {
		case code := <-exit:
			if code != 0 {
				t.Fatalf("daemon exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
			}
		case <-time.After(60 * time.Second):
			t.Fatal("daemon did not exit after shutdown")
		}
	}
	return enc, dec, stop
}

// TestDaemonKill9Recovery is the operator-facing crash contract, end to
// end through the real binary surface: a daemon process is SIGKILLed —
// no drain, no deferred cleanup — mid-job, a new daemon on the same
// -data-dir re-adopts the job from the journal, resumes it from the
// last durable checkpoint, and finishes on exactly the bits an
// unbroken daemon of the same configuration produces.
func TestDaemonKill9Recovery(t *testing.T) {
	dir := t.TempDir()
	spec := &server.JobSpec{D: 2, N: 300, Iters: 6000, Warm: 1, Vel: 4,
		RC: 1.2}

	// Reference: the same daemon configuration, never interrupted.
	refCk := filepath.Join(dir, "ref.ck")
	refSpec := *spec
	refSpec.Checkpoint = refCk
	enc, dec, stop := startDaemon(t,
		"-socket", filepath.Join(dir, "ref.sock"),
		"-data-dir", filepath.Join(dir, "refdata"),
		"-workers", "1", "-checkpoint-every", "50")
	r := roundTrip(t, enc, dec, server.Request{Cmd: "submit", Job: &refSpec})
	if !r.OK {
		t.Fatalf("submit reference: %s", r.Error)
	}
	if st := pollState(t, enc, dec, r.ID); st.State != "done" {
		t.Fatalf("reference ended %s: %s", st.State, st.Error)
	}
	stop()

	// Victim: a child daemon process killed with SIGKILL mid-job, well
	// past a few checkpoint boundaries.
	dataDir := filepath.Join(dir, "data")
	sock := filepath.Join(dir, "victim.sock")
	child := exec.Command(os.Args[0], "-test.run=^TestDaemonKill9Helper$")
	child.Env = append(os.Environ(),
		"DEMD_KILL9_SOCK="+sock, "DEMD_KILL9_DATA="+dataDir)
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	defer child.Process.Kill()

	c := dialDaemon(t, sock)
	defer c.Close()
	venc, vdec := json.NewEncoder(c), json.NewDecoder(c)
	vSpec := *spec
	vSpec.Checkpoint = filepath.Join(dir, "victim.ck")
	rv := roundTrip(t, venc, vdec, server.Request{Cmd: "submit", Job: &vSpec})
	if !rv.OK {
		t.Fatalf("submit victim: %s", rv.Error)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := roundTrip(t, venc, vdec, server.Request{Cmd: "status", ID: rv.ID})
		if !st.OK {
			t.Fatalf("status: %s", st.Error)
		}
		if st.Job.State == "running" && st.Job.ItersDone >= 150 {
			break
		}
		if st.Job.State == "done" {
			t.Fatal("victim finished before the kill; raise Iters")
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never reached 150 iterations (state %s, %d done)",
				st.Job.State, st.Job.ItersDone)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := child.Process.Kill(); err != nil { // SIGKILL: no drain, no cleanup
		t.Fatal(err)
	}
	child.Wait()

	// Restart on the same data dir and let recovery finish the job.
	enc2, dec2, stop2 := startDaemon(t,
		"-socket", filepath.Join(dir, "restart.sock"),
		"-data-dir", dataDir,
		"-workers", "1", "-checkpoint-every", "50")
	fin := pollState(t, enc2, dec2, rv.ID)
	if fin.State != "done" {
		t.Fatalf("recovered job ended %s: %s", fin.State, fin.Error)
	}
	if !fin.Recovered {
		t.Fatal("recovered job does not report Recovered")
	}
	if fin.ItersDone != spec.Iters {
		t.Fatalf("recovered job finished at %d iterations, want %d", fin.ItersDone, spec.Iters)
	}
	if st := roundTrip(t, enc2, dec2, server.Request{Cmd: "stats"}); !st.OK || st.Stats.Recovered < 1 {
		t.Fatalf("restarted daemon stats %+v: want Recovered >= 1", st.Stats)
	}
	stop2()

	want, err := checkpoint.LoadFile(refCk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := checkpoint.LoadFile(vSpec.Checkpoint)
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
				t.Fatalf("particle %d component %d differs after kill -9 recovery: pos %v vs %v, vel %v vs %v",
					i, k, wp[k], gp[k], wv[k], gv[k])
			}
		}
	}
}
