package server

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hybriddem/internal/checkpoint"
)

// startServer builds a server listening on a unix socket in a temp dir
// and tears everything down with the test.
func startServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "s.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(s.Shutdown)
	return s, sock
}

func dial(t *testing.T, sock string) (net.Conn, *json.Encoder, *json.Decoder) {
	t.Helper()
	c, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, json.NewEncoder(c), json.NewDecoder(c)
}

func request(t *testing.T, enc *json.Encoder, dec *json.Decoder, req Request) Response {
	t.Helper()
	if err := enc.Encode(&req); err != nil {
		t.Fatalf("send %q: %v", req.Cmd, err)
	}
	var resp Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("recv %q: %v", req.Cmd, err)
	}
	return resp
}

// waitState polls the server API until the job reaches want or a
// terminal state.
func waitState(t *testing.T, s *Server, id, want string) *JobStatus {
	t.Helper()
	// Generous: the bit-identity specs run tens of thousands of steps,
	// and -race on a single-CPU runner slows them well over 10x.
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp := s.Status(id)
		if !resp.OK {
			t.Fatalf("status %s: %s", id, resp.Error)
		}
		st := resp.Job
		if st.State == want {
			return st
		}
		switch st.State {
		case "done", "canceled", "failed":
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSubmitStreamsToCompletion drives the happy path over the socket:
// submit, subscribe, watch every step event arrive in order, and check
// the final status and counters. A blocker job holds the single worker
// until the subscription is attached, so every event of the watched
// job is provably observed.
func TestSubmitStreamsToCompletion(t *testing.T) {
	s, sock := startServer(t, Options{Workers: 1})
	_, enc, dec := dial(t, sock)

	blocker := request(t, enc, dec, Request{Cmd: "submit", Job: &JobSpec{D: 2, N: 400, Iters: 500000}})
	if !blocker.OK {
		t.Fatalf("submit blocker: %s", blocker.Error)
	}

	const iters = 6
	resp := request(t, enc, dec, Request{Cmd: "submit", Job: &JobSpec{D: 2, N: 100, Iters: iters}})
	if !resp.OK {
		t.Fatalf("submit: %s", resp.Error)
	}
	id := resp.ID

	// Subscribe on a second connection while the job is still queued,
	// then release the worker.
	_, senc, sdec := dial(t, sock)
	if r := request(t, senc, sdec, Request{Cmd: "subscribe", ID: id}); !r.OK {
		t.Fatalf("subscribe: %s", r.Error)
	}
	if r := request(t, enc, dec, Request{Cmd: "cancel", ID: blocker.ID}); !r.OK {
		t.Fatalf("cancel blocker: %s", r.Error)
	}

	steps := 0
	sawDone, sawEOF := false, false
	for !sawEOF {
		var ev Event
		if err := sdec.Decode(&ev); err != nil {
			t.Fatalf("event stream after %d steps: %v", steps, err)
		}
		switch ev.Event {
		case "step":
			if ev.Iter != steps {
				t.Fatalf("step event %d arrived out of order (iter %d)", steps, ev.Iter)
			}
			steps++
		case "state":
			if ev.State == "done" {
				sawDone = true
			}
		case "eof":
			sawEOF = true
		case "dropped":
			t.Fatal("subscriber evicted during a 6-step run")
		}
	}
	if steps != iters {
		t.Fatalf("streamed %d step events, want %d", steps, iters)
	}
	if !sawDone {
		t.Fatal("stream ended without the done event")
	}

	st := waitState(t, s, id, "done")
	if st.ItersDone != iters || st.EventsSent == 0 || st.BytesStreamed == 0 {
		t.Fatalf("final status %+v: want %d iterations and nonzero stream counters", st, iters)
	}
	if r := s.ServerStats(); r.Stats.Completed != 1 || r.Stats.Submitted != 2 {
		t.Fatalf("server stats %+v after one completed and one canceled job", r.Stats)
	}

	// A subscription to a finished job replays the terminal state
	// deterministically: one final status event, then the terminator.
	if r := request(t, senc, sdec, Request{Cmd: "subscribe", ID: id}); !r.OK {
		t.Fatalf("re-subscribe: %s", r.Error)
	}
	var ev Event
	if err := sdec.Decode(&ev); err != nil {
		t.Fatalf("terminal replay: %v", err)
	}
	if ev.Event != "state" || ev.State != "done" || ev.Iter != iters {
		t.Fatalf("subscribe to a finished job streamed %+v, want the done state event", ev)
	}
	if err := sdec.Decode(&ev); err != nil {
		t.Fatalf("terminator: %v", err)
	}
	if ev.Event != "eof" {
		t.Fatalf("terminal replay followed by %q, want eof", ev.Event)
	}
}

// TestQueueFullBackpressure pins the bounded-queue contract: with one
// worker busy and a one-slot queue, a third submission is rejected
// with a retry-after hint instead of queued without bound — and the
// rejection costs nothing (no job id, no table entry).
func TestQueueFullBackpressure(t *testing.T) {
	s, _ := startServer(t, Options{Workers: 1, QueueDepth: 1, RetryAfter: 250 * time.Millisecond})

	long := &JobSpec{D: 2, N: 400, Iters: 500000}
	r1 := s.Submit(long)
	if !r1.OK {
		t.Fatalf("submit 1: %s", r1.Error)
	}
	waitState(t, s, r1.ID, "running")

	r2 := s.Submit(long)
	if !r2.OK {
		t.Fatalf("submit 2 (queued): %s", r2.Error)
	}
	r3 := s.Submit(long)
	if r3.OK {
		t.Fatal("submit 3 accepted with a full queue")
	}
	if r3.RetryAfterMs != 250 {
		t.Fatalf("rejection carries RetryAfterMs=%d, want 250", r3.RetryAfterMs)
	}
	if s.Status(r3.ID).OK {
		t.Fatal("rejected submission left a job behind")
	}
	if st := s.ServerStats().Stats; st.Rejected != 1 || st.Submitted != 2 {
		t.Fatalf("stats after rejection: %+v", st)
	}

	// A queued job cancels instantly — no worker ever claims it.
	if r := s.Cancel(r2.ID); !r.OK {
		t.Fatalf("cancel queued: %s", r.Error)
	}
	if st := waitState(t, s, r2.ID, "canceled"); st.ItersDone != 0 {
		t.Fatalf("queued job ran %d iterations before cancel", st.ItersDone)
	}
	if r := s.Cancel(r1.ID); !r.OK {
		t.Fatalf("cancel running: %s", r.Error)
	}
	waitState(t, s, r1.ID, "canceled")
}

// TestSubmitValidation rejects garbage at the door.
func TestSubmitValidation(t *testing.T) {
	s, _ := startServer(t, Options{MaxN: 1000, MaxIters: 100})
	for name, spec := range map[string]*JobSpec{
		"nil spec":     nil,
		"no particles": {Iters: 5},
		"no iters":     {N: 100},
		"bad mode":     {N: 100, Iters: 5, Mode: "cuda"},
		"over max-n":   {N: 5000, Iters: 5},
		"over max-it":  {N: 100, Iters: 500},
	} {
		if r := s.Submit(spec); r.OK {
			t.Errorf("%s: accepted", name)
		}
	}
	if r := s.Status("j999"); r.OK {
		t.Error("status of an unknown job succeeded")
	}
}

// TestCancelResumeBitIdenticalOverSocket is the daemon-level
// acceptance check: a job canceled mid-run checkpoints its partial
// state, and resubmitting with that checkpoint as the load path lands
// — bit for bit — on the same final state as an uninterrupted job.
func TestCancelResumeBitIdenticalOverSocket(t *testing.T) {
	dir := t.TempDir()
	s, sock := startServer(t, Options{Workers: 1})
	_, enc, dec := dial(t, sock)

	// A lively spec (velocity + tight cutoff) rebuilds its link list
	// every handful of steps, so the latched cancel lands on a rebuild
	// boundary quickly; noreorder because bit-exact resume in the
	// shared modes needs the cache reordering off (see core.Config.Stop).
	// One thread: a JobSpec cannot choose the update method, and under
	// the default selected-atomic locks two T>1 runs of one spec differ
	// in the last bits with the order threads reach a shared particle.
	// The total is generous because the cancel round-trips over the
	// socket: on a starved single-CPU machine the first streamed step
	// can reach the client tens of milliseconds late, and the job must
	// still be comfortably mid-run when the cancel lands.
	const total = 20000
	spec := JobSpec{D: 2, N: 300, Iters: total, Mode: "openmp", T: 1,
		Warm: 1, Vel: 4, RC: 1.2, NoReorder: true}

	// Reference: an unbroken run of the same spec.
	ref := spec
	ref.Checkpoint = filepath.Join(dir, "ref.ck")
	rr := request(t, enc, dec, Request{Cmd: "submit", Job: &ref})
	if !rr.OK {
		t.Fatalf("submit reference: %s", rr.Error)
	}
	waitState(t, s, rr.ID, "done")

	// Victim: same spec, canceled after the first streamed step. A
	// blocker holds the single worker so the victim stays queued while
	// the subscriber attaches — otherwise the short run could finish
	// before the subscription lands and stream nothing but eof.
	blocker := s.Submit(&JobSpec{D: 2, N: 400, Iters: 500000})
	if !blocker.OK {
		t.Fatalf("submit blocker: %s", blocker.Error)
	}
	victim := spec
	victim.Checkpoint = filepath.Join(dir, "victim.ck")
	rv := request(t, enc, dec, Request{Cmd: "submit", Job: &victim})
	if !rv.OK {
		t.Fatalf("submit victim: %s", rv.Error)
	}
	sc, senc, sdec := dial(t, sock)
	_ = sc
	if r := request(t, senc, sdec, Request{Cmd: "subscribe", ID: rv.ID}); !r.OK {
		t.Fatalf("subscribe: %s", r.Error)
	}
	if r := request(t, enc, dec, Request{Cmd: "cancel", ID: blocker.ID}); !r.OK {
		t.Fatalf("cancel blocker: %s", r.Error)
	}
	for {
		var ev Event
		if err := sdec.Decode(&ev); err != nil {
			t.Fatalf("event stream: %v", err)
		}
		if ev.Event == "step" {
			break
		}
		if ev.Event == "eof" || ev.Event == "dropped" {
			t.Fatalf("stream ended (%s) before any step event", ev.Event)
		}
	}
	if r := request(t, enc, dec, Request{Cmd: "cancel", ID: rv.ID}); !r.OK {
		t.Fatalf("cancel: %s", r.Error)
	}
	st := waitState(t, s, rv.ID, "canceled")
	if st.ItersDone <= 0 || st.ItersDone >= total {
		t.Fatalf("victim canceled after %d iterations, want mid-run", st.ItersDone)
	}
	if st.Checkpoint == "" {
		t.Fatal("canceled victim reports no checkpoint")
	}

	// Resume: load the victim's checkpoint, same cumulative total.
	resume := spec
	resume.Load = victim.Checkpoint
	resume.Checkpoint = filepath.Join(dir, "resumed.ck")
	rs := request(t, enc, dec, Request{Cmd: "submit", Job: &resume})
	if !rs.OK {
		t.Fatalf("submit resume: %s", rs.Error)
	}
	fin := waitState(t, s, rs.ID, "done")
	if fin.ItersDone != total {
		t.Fatalf("resumed job finished at %d cumulative iterations, want %d", fin.ItersDone, total)
	}

	want, err := checkpoint.LoadFile(ref.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	got, err := checkpoint.LoadFile(resume.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if want.Iters != total || got.Iters != total {
		t.Fatalf("cumulative counts: reference %d, resumed %d, want %d", want.Iters, got.Iters, total)
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

// TestResumeExhaustedIters: resubmitting a finished checkpoint with a
// cumulative total it already holds fails instead of silently running.
func TestResumeExhaustedIters(t *testing.T) {
	dir := t.TempDir()
	s, _ := startServer(t, Options{Workers: 1})
	ck := filepath.Join(dir, "done.ck")
	r := s.Submit(&JobSpec{D: 2, N: 100, Iters: 3, Checkpoint: ck})
	if !r.OK {
		t.Fatalf("submit: %s", r.Error)
	}
	waitState(t, s, r.ID, "done")

	r = s.Submit(&JobSpec{D: 2, N: 100, Iters: 3, Load: ck})
	if !r.OK {
		t.Fatalf("submit resume: %s", r.Error)
	}
	resp := s.Status(r.ID)
	deadline := time.Now().Add(10 * time.Second)
	for resp.Job.State != "failed" {
		if time.Now().After(deadline) {
			t.Fatalf("exhausted resume ended %s, want failed", resp.Job.State)
		}
		time.Sleep(2 * time.Millisecond)
		resp = s.Status(r.ID)
	}
}

// TestShutdownCancelsAndCheckpoints: Shutdown drains — the running job
// is canceled at a step boundary and still writes its checkpoint.
func TestShutdownCancelsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "drain.ck")
	s, _ := startServer(t, Options{Workers: 1})
	r := s.Submit(&JobSpec{D: 2, N: 400, Iters: 500000, Checkpoint: ck})
	if !r.OK {
		t.Fatalf("submit: %s", r.Error)
	}
	waitState(t, s, r.ID, "running")
	s.Shutdown()
	st := s.Status(r.ID).Job
	if st.State != "canceled" {
		t.Fatalf("after shutdown the job is %s, want canceled", st.State)
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("drained job left no checkpoint: %v", err)
	}
	if rs := s.Submit(&JobSpec{D: 2, N: 100, Iters: 3}); rs.OK {
		t.Fatal("submit accepted after shutdown")
	}
}

// TestStatusWhileJobsArePickedUp polls status without pause while
// workers take jobs off the queue: the steps-per-second figure reads the
// attempt's restored iteration count, which the worker writes as it
// starts the attempt. Run under -race (CI does); the assertions are the
// plain contract that a running job never reports a negative rate.
func TestStatusWhileJobsArePickedUp(t *testing.T) {
	s, _ := startServer(t, Options{Workers: 2})
	for round := 0; round < 6; round++ {
		var ids []string
		for k := 0; k < 2; k++ {
			r := s.Submit(&JobSpec{D: 2, N: 200, Iters: 40, Seed: int64(round*2 + k + 1)})
			if !r.OK {
				t.Fatalf("submit: %s", r.Error)
			}
			ids = append(ids, r.ID)
		}
		deadline := time.Now().Add(60 * time.Second)
		for pending := len(ids); pending > 0; {
			pending = 0
			for _, id := range ids {
				resp := s.Status(id)
				if !resp.OK {
					t.Fatalf("status %s: %s", id, resp.Error)
				}
				switch st := resp.Job; {
				case st.State == "failed" || st.State == "canceled":
					t.Fatalf("job %s reached %s (%s)", id, st.State, st.Error)
				case st.StepsPerS < 0:
					t.Fatalf("job %s reports %g steps/s", id, st.StepsPerS)
				case st.State != "done":
					pending++
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d jobs still not done", round, pending)
			}
		}
	}
}
