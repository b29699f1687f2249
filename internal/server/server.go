package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hybriddem/internal/checkpoint"
	"hybriddem/internal/core"
	"hybriddem/internal/fault"
	"hybriddem/internal/mp"
)

// Options tunes a Server. The zero value gets sensible defaults.
type Options struct {
	// Workers is the size of the worker pool — the number of jobs
	// simulating concurrently. Default 2.
	Workers int
	// QueueDepth bounds the jobs waiting for a worker. A submit that
	// finds the queue full is rejected with a retry-after hint instead
	// of queued without bound: under heavy traffic the daemon degrades
	// by shedding load at the door, never by growing until it dies.
	// Default 16.
	QueueDepth int
	// EventBuffer is the per-subscriber event buffer. A subscriber
	// that falls this many events behind is dropped rather than
	// allowed to stall anything. Default 64.
	EventBuffer int
	// RetryAfter is the backoff hint attached to queue-full
	// rejections. Default 1s.
	RetryAfter time.Duration
	// WriteTimeout bounds a single event write to a subscriber
	// connection; a blocked socket past it drops the subscriber.
	// Default 10s.
	WriteTimeout time.Duration
	// MaxN and MaxIters, when positive, are per-job resource limits:
	// submissions exceeding them are rejected outright.
	MaxN, MaxIters int

	// DataDir, when set, makes the job lifecycle durable: the dir
	// holds the write-ahead journal (journal.wal) plus per-job
	// checkpoint files (jobs/<id>.ck) written every CheckpointEvery
	// measured iterations. A daemon restarted on the same DataDir
	// replays the journal, re-adopts every job it had accepted,
	// re-enqueues the interrupted ones and resumes them from their
	// last durable checkpoint. Empty DataDir keeps the PR-9 in-memory
	// behaviour.
	DataDir string
	// CheckpointEvery is the default durable checkpoint cadence in
	// measured iterations (per-job CheckpointEvery overrides it).
	// Default 256. Only meaningful with DataDir.
	CheckpointEvery int
	// MaxRestarts is the default per-job retry budget after retryable
	// faults (per-job MaxRestarts overrides it; negative means no
	// retries). Default 2.
	MaxRestarts int
	// RetryBackoff is the delay before the first retry of a faulted
	// job, doubling per consumed restart (capped at 64x). Default 1s.
	RetryBackoff time.Duration
	// Watchdog, when positive, arms core.Config.Watchdog for every job
	// (per-job WatchdogMs overrides it): a distributed attempt whose
	// communication goes silent that long dies with a timeout fault
	// instead of wedging its worker forever.
	Watchdog time.Duration

	// Logf, when non-nil, receives server lifecycle messages.
	Logf func(format string, args ...any)
}

func (o *Options) setDefaults() {
	if o.Workers < 1 {
		o.Workers = 2
	}
	if o.QueueDepth < 1 {
		o.QueueDepth = 16
	}
	if o.EventBuffer < 1 {
		o.EventBuffer = 64
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.CheckpointEvery < 1 {
		o.CheckpointEvery = 256
	}
	if o.MaxRestarts == 0 {
		o.MaxRestarts = 2
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = time.Second
	}
}

// Server owns the job table, the bounded scheduler and the client
// connections. Create with New, serve with Serve, stop with Shutdown
// (idempotent; also reachable over the wire as the "shutdown"
// command).
type Server struct {
	opts Options

	dataDir string   // Options.DataDir (empty: nothing durable)
	journal *journal // nil without a data dir

	mu          sync.Mutex // guards jobs/order/nextID, retryTimers, and queue sends vs close
	jobs        map[string]*Job
	order       []string
	nextID      int
	draining    bool
	queue       chan *Job
	retryTimers map[string]*time.Timer // armed backoff timers by job id

	workerWG sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	connWG sync.WaitGroup

	ln       net.Listener
	lnMu     sync.Mutex
	shutOnce sync.Once
	done     chan struct{}

	running   atomic.Int64
	submitted atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	canceled  atomic.Int64
	failed    atomic.Int64
	retried   atomic.Int64
	recovered atomic.Int64
}

// New builds a Server and starts its worker pool. With Options.DataDir
// set it first recovers: the journal is replayed, every job the
// previous incarnation had accepted is re-adopted (terminal jobs as
// history, interrupted ones re-enqueued to resume from their last
// durable checkpoint), and the journal is compacted. The pool idles
// until jobs arrive; Shutdown stops it.
func New(opts Options) (*Server, error) {
	opts.setDefaults()
	s := &Server{
		opts:        opts,
		jobs:        make(map[string]*Job),
		conns:       make(map[net.Conn]struct{}),
		retryTimers: make(map[string]*time.Timer),
		done:        make(chan struct{}),
	}
	var pending []*Job
	if opts.DataDir != "" {
		s.dataDir = opts.DataDir
		if err := os.MkdirAll(filepath.Join(s.dataDir, "jobs"), 0o755); err != nil {
			return nil, fmt.Errorf("demd: data dir: %w", err)
		}
		jpath := filepath.Join(s.dataDir, "journal.wal")
		pending = s.rebuild(replayJournal(jpath))
		j, err := createJournal(jpath, s.compactRecords())
		if err != nil {
			return nil, fmt.Errorf("demd: journal: %w", err)
		}
		s.journal = j
	}
	// The queue must absorb every recovered job without blocking New,
	// however small QueueDepth is relative to the crashed backlog.
	qcap := opts.QueueDepth
	if len(pending) > qcap {
		qcap = len(pending)
	}
	s.queue = make(chan *Job, qcap)
	for _, job := range pending {
		s.queue <- job
	}
	if n := len(pending); n > 0 {
		s.recovered.Add(int64(n))
		s.logf("demd: recovered %d interrupted job(s) from the journal", n)
	}
	for i := 0; i < opts.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s, nil
}

// rebuild folds replayed journal records into the job table and
// resolves every job's post-crash fate: terminal jobs are kept as
// history, a job with a durable cancel request is retired canceled,
// and everything else — queued or running when the daemon died — is
// demoted to queued, marked recovered, and returned for re-enqueueing
// in original submission order. It never panics, whatever the journal
// held: unknown kinds, states and dangling ids are skipped.
func (s *Server) rebuild(recs []record) []*Job {
	for i := range recs {
		rec := &recs[i]
		switch rec.Kind {
		case "seq":
			if rec.Seq > s.nextID {
				s.nextID = rec.Seq
			}
		case "submit":
			if rec.Spec == nil || rec.ID == "" {
				continue
			}
			if rec.Seq > s.nextID {
				s.nextID = rec.Seq
			}
			if _, dup := s.jobs[rec.ID]; dup {
				continue
			}
			job := newJob(rec.ID, rec.Seq, *rec.Spec)
			s.jobs[rec.ID] = job
			s.order = append(s.order, rec.ID)
		case "state":
			job := s.jobs[rec.ID]
			if job == nil {
				continue
			}
			st, ok := stateByName(rec.State)
			if !ok {
				continue
			}
			job.state = st
			job.errMsg = rec.Error
			job.restarts.Store(int32(rec.Restarts))
			job.itersDone.Store(int64(rec.Iters))
			if rec.Recovered {
				job.recovered = true
			}
		case "cancel":
			if job := s.jobs[rec.ID]; job != nil {
				job.cancelReq = true
			}
		}
	}
	var pending []*Job
	for _, id := range s.order {
		job := s.jobs[id]
		switch job.state {
		case StateDone, StateCanceled, StateFailed:
			job.hub.closeAll()
			if job.Spec.Checkpoint != "" {
				if _, err := os.Stat(job.Spec.Checkpoint); err == nil {
					job.ckWritten.Store(true)
				}
			}
		default:
			if job.cancelReq {
				// The cancel intent was durable even though the daemon
				// died before the transition landed: honour it now.
				job.state = StateCanceled
				job.hub.closeAll()
				continue
			}
			job.state = StateQueued
			job.recovered = true
			pending = append(pending, job)
		}
	}
	return pending
}

// compactRecords renders the rebuilt job table as a minimal journal:
// the id high-water mark, then per job one submit record plus (when
// the job carries any state beyond freshly-queued) one state record.
func (s *Server) compactRecords() []*record {
	recs := []*record{{Kind: "seq", Seq: s.nextID}}
	for _, id := range s.order {
		job := s.jobs[id]
		recs = append(recs, &record{Kind: "submit", Seq: job.seq, ID: job.ID, Spec: &job.Spec})
		if job.state != StateQueued || job.restarts.Load() > 0 || job.recovered || job.itersDone.Load() > 0 {
			recs = append(recs, s.stateRecord(job, job.state, job.errMsg))
		}
	}
	return recs
}

// stateRecord assembles a journal state record from a job's current
// bookkeeping.
func (s *Server) stateRecord(j *Job, st State, errMsg string) *record {
	return &record{
		Kind: "state", ID: j.ID, State: st.String(), Error: errMsg,
		Restarts: int(j.restarts.Load()), Iters: int(j.itersDone.Load()),
		Recovered: j.recovered,
	}
}

// journalAppend durably appends one record, or does nothing without a
// data dir. Append failures on state transitions are logged, not
// fatal: the in-memory lifecycle must keep moving even if the disk
// under the journal degrades (the next restart simply re-runs a little
// more work).
func (s *Server) journalAppend(rec *record) {
	if s.journal == nil {
		return
	}
	if err := s.journal.append(rec); err != nil {
		s.logf("demd: journal append: %v", err)
	}
}

func stateByName(name string) (State, bool) {
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateCanceled, StateFailed} {
		if st.String() == name {
			return st, true
		}
	}
	return 0, false
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Serve accepts connections on ln until the listener closes. A close
// triggered by Shutdown returns nil; any other accept failure returns
// the error.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return nil
			default:
			}
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.connMu.Lock()
		s.conns[c] = struct{}{}
		s.connMu.Unlock()
		s.connWG.Add(1)
		go s.handleConn(c)
	}
}

// Shutdown stops the server cleanly: new submissions are rejected, the
// listener closes, every queued and running job is canceled — running
// jobs stop at their next step boundary and write their checkpoint if
// they were given a path, so no work is silently lost — the workers
// drain, client connections close, and the journal closes last so the
// drain's own transitions reach it. Safe to call more than once and
// from a connection handler (the wire "shutdown" command).
func (s *Server) Shutdown() {
	s.shutOnce.Do(func() {
		s.logf("demd: shutting down")
		s.mu.Lock()
		s.draining = true
		for id, t := range s.retryTimers {
			t.Stop()
			delete(s.retryTimers, id)
		}
		for _, id := range s.order {
			s.cancelLocked(s.jobs[id])
		}
		close(s.queue)
		s.mu.Unlock()

		s.lnMu.Lock()
		if s.ln != nil {
			s.ln.Close()
		}
		s.lnMu.Unlock()

		s.workerWG.Wait()

		s.connMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		s.connWG.Wait()
		if s.journal != nil {
			s.journal.close()
		}
		close(s.done)
	})
}

// crash simulates the daemon dying at this instant, for recovery
// tests: the journal is frozen first, so nothing the orderly drain
// does afterwards reaches the log — the on-disk journal is exactly
// what kill -9 would have left — and then the goroutines are torn
// down. (Durable per-job checkpoints may still advance during the
// drain; recovery only resumes further along, which the bit-exactness
// contract is indifferent to.)
func (s *Server) crash() {
	if s.journal != nil {
		s.journal.freeze()
	}
	s.Shutdown()
}

// Done is closed once Shutdown has fully drained.
func (s *Server) Done() <-chan struct{} { return s.done }

// Submit validates and enqueues a job, returning the wire response
// (also used directly by tests and embedders). The job id is not
// acknowledged until the submit record is fsynced to the journal, so
// an accepted job can never be forgotten by a crash.
func (s *Server) Submit(spec *JobSpec) *Response {
	if spec == nil {
		return &Response{OK: false, Error: "submit needs a job spec"}
	}
	if s.opts.MaxN > 0 && spec.N > s.opts.MaxN {
		s.rejected.Add(1)
		return &Response{OK: false, Error: fmt.Sprintf("n=%d exceeds the per-job limit %d", spec.N, s.opts.MaxN)}
	}
	if s.opts.MaxIters > 0 && spec.Iters > s.opts.MaxIters {
		s.rejected.Add(1)
		return &Response{OK: false, Error: fmt.Sprintf("iters=%d exceeds the per-job limit %d", spec.Iters, s.opts.MaxIters)}
	}
	if err := validateLifecycle(spec); err != nil {
		s.rejected.Add(1)
		return &Response{OK: false, Error: err.Error()}
	}
	// Validate everything except the checkpoint load (the worker does
	// the real load; rejecting bad geometry/mode here keeps garbage out
	// of the queue).
	probe := *spec
	probe.Load = ""
	if _, _, err := probe.config(); err != nil {
		s.rejected.Add(1)
		return &Response{OK: false, Error: err.Error()}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rejected.Add(1)
		return &Response{OK: false, Error: "server is shutting down"}
	}
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		s.rejected.Add(1)
		return &Response{
			OK:           false,
			Error:        fmt.Sprintf("queue full (%d jobs waiting); retry later", cap(s.queue)),
			RetryAfterMs: s.opts.RetryAfter.Milliseconds(),
		}
	}
	s.nextID++
	job := newJob(fmt.Sprintf("j%d", s.nextID), s.nextID, *spec)
	if s.journal != nil {
		if err := s.journal.append(&record{Kind: "submit", Seq: job.seq, ID: job.ID, Spec: &job.Spec}); err != nil {
			s.nextID-- // the id was never exposed
			s.mu.Unlock()
			s.rejected.Add(1)
			return &Response{OK: false, Error: fmt.Sprintf("journal: %v", err)}
		}
	}
	// Guaranteed not to block: the fullness check above and every other
	// queue send happen under s.mu, and workers only drain.
	s.queue <- job
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.mu.Unlock()
	s.submitted.Add(1)
	return &Response{OK: true, ID: job.ID}
}

// validateLifecycle rejects nonsensical durability/deadline fields at
// the door.
func validateLifecycle(spec *JobSpec) error {
	if spec.DeadlineMs < 0 || spec.StallWindowMs < 0 || spec.WatchdogMs < 0 {
		return fmt.Errorf("deadlineMs, stallWindowMs and watchdogMs must be non-negative")
	}
	if spec.MinStepsPerS < 0 {
		return fmt.Errorf("minStepsPerSec must be non-negative")
	}
	if spec.CheckpointEvery < 0 {
		return fmt.Errorf("checkpointEvery must be non-negative")
	}
	if spec.ChaosKill != "" {
		if _, _, err := mp.ParseKill(spec.ChaosKill); err != nil {
			return err
		}
		m, err := core.ModeByName(spec.Mode) // "" (the serial default) is no name and fails here too
		if err != nil || !m.Distributed() {
			return fmt.Errorf("chaosKill needs a distributed mode (mpi | hybrid | mpism)")
		}
	}
	return nil
}

// maxRestartsFor resolves a job's retry budget: spec override, server
// default, never negative.
func (s *Server) maxRestartsFor(spec *JobSpec) int {
	m := spec.MaxRestarts
	if m == 0 {
		m = s.opts.MaxRestarts
	}
	return max(m, 0)
}

// Cancel requests cancellation of a job by id.
func (s *Server) Cancel(id string) *Response {
	s.mu.Lock()
	job, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return &Response{OK: false, Error: fmt.Sprintf("no job %q", id)}
	}
	s.cancelLocked(job)
	s.mu.Unlock()
	return &Response{OK: true, ID: id}
}

// cancelLocked makes the cancellation durable (the intent is journaled
// before anything moves, so a crash mid-cancel still cancels on
// recovery), flips the stop flag, disarms any pending retry, and
// retires a job no worker has claimed yet. Held under s.mu.
func (s *Server) cancelLocked(job *Job) {
	job.mu.Lock()
	st := job.state
	job.mu.Unlock()
	if st == StateDone || st == StateCanceled || st == StateFailed {
		return
	}
	s.journalAppend(&record{Kind: "cancel", ID: job.ID})
	if t, ok := s.retryTimers[job.ID]; ok {
		t.Stop()
		delete(s.retryTimers, job.ID)
	}
	job.cancel()
	job.mu.Lock()
	queued := job.state == StateQueued
	if queued {
		job.state = StateCanceled
	}
	job.mu.Unlock()
	if queued {
		s.canceled.Add(1)
		s.journalAppend(s.stateRecord(job, StateCanceled, ""))
		job.publishFinalEvent(Event{Event: "state", State: StateCanceled.String()})
	}
}

// Status reports one job.
func (s *Server) Status(id string) *Response {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return &Response{OK: false, Error: fmt.Sprintf("no job %q", id)}
	}
	return &Response{OK: true, ID: id, Job: job.status()}
}

// List reports every job in submission order.
func (s *Server) List() *Response {
	s.mu.Lock()
	out := make([]*JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	s.mu.Unlock()
	return &Response{OK: true, Jobs: out}
}

// ServerStats snapshots the server-wide counters.
func (s *Server) ServerStats() *Response {
	return &Response{OK: true, Stats: &Stats{
		Workers:    s.opts.Workers,
		QueueDepth: len(s.queue),
		QueueCap:   cap(s.queue),
		Running:    int(s.running.Load()),
		Submitted:  s.submitted.Load(),
		Rejected:   s.rejected.Load(),
		Completed:  s.completed.Load(),
		Canceled:   s.canceled.Load(),
		Failed:     s.failed.Load(),
		Retried:    s.retried.Load(),
		Recovered:  s.recovered.Load(),
	}}
}

// worker pulls jobs off the bounded queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// claim transitions queued→running; false if the job was already
// retired (canceled while queued).
func (j *Job) claim() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// runJob drives one execution attempt end to end: claim, journal the
// running transition, execute, and either schedule a retry (retryable
// fault with budget left) or retire the job in its terminal state.
func (s *Server) runJob(j *Job) {
	if !j.claim() {
		return // canceled while queued; already retired
	}
	s.running.Add(1)
	s.journalAppend(s.stateRecord(j, StateRunning, ""))
	j.publishEvent(Event{Event: "state", State: StateRunning.String()})
	s.logf("demd: job %s running (attempt %d)", j.ID, j.restarts.Load()+1)

	st, msg, retryable := s.execute(j)
	s.running.Add(-1)
	if retryable && s.scheduleRetry(j, msg) {
		return
	}
	s.finishJob(j, st, msg)
}

// finishJob retires a job in a terminal state: journal first, then the
// in-memory transition, counters, and the atomically-final event that
// ends the subscriber streams.
func (s *Server) finishJob(j *Job, st State, errMsg string) {
	s.journalAppend(s.stateRecord(j, st, errMsg))
	j.setState(st, errMsg)
	switch st {
	case StateDone:
		s.completed.Add(1)
	case StateCanceled:
		s.canceled.Add(1)
	case StateFailed:
		s.failed.Add(1)
	}
	j.publishFinalEvent(Event{Event: "state", State: st.String(), Error: errMsg})
	s.logf("demd: job %s %s (%d/%d iterations)", j.ID, st, j.itersDone.Load(), j.Spec.Iters)
}

// scheduleRetry re-queues a faulted job after exponential backoff if
// its journaled restart budget allows; false means the budget is
// exhausted (or the server is draining) and the caller must fail the
// job.
func (s *Server) scheduleRetry(j *Job, faultMsg string) bool {
	budget := s.maxRestartsFor(&j.Spec)
	if int(j.restarts.Load()) >= budget {
		return false
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return false
	}
	n := int(j.restarts.Add(1))
	s.journalAppend(s.stateRecord(j, StateQueued, faultMsg))
	j.setState(StateQueued, faultMsg)
	j.resetStop()
	backoff := s.opts.RetryBackoff << min(n-1, 6)
	t := time.AfterFunc(backoff, func() { s.enqueueRetry(j) })
	s.retryTimers[j.ID] = t
	s.mu.Unlock()
	s.retried.Add(1)
	j.publishEvent(Event{Event: "state", State: StateQueued.String(), Error: faultMsg})
	s.logf("demd: job %s fault (restart %d/%d, backoff %s): %s", j.ID, n, budget, backoff, faultMsg)
	return true
}

// enqueueRetry is the backoff timer's continuation: put the job back
// on the queue, unless it was canceled or the server is draining. A
// full queue re-arms the timer instead of blocking (retried jobs never
// jump the backpressure contract).
func (s *Server) enqueueRetry(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.retryTimers, j.ID)
	if s.draining {
		return
	}
	j.mu.Lock()
	st := j.state
	j.mu.Unlock()
	if st != StateQueued {
		return // canceled during backoff
	}
	if len(s.queue) == cap(s.queue) {
		t := time.AfterFunc(s.opts.RetryAfter, func() { s.enqueueRetry(j) })
		s.retryTimers[j.ID] = t
		return
	}
	s.queue <- j
}

// durablePath is where the daemon keeps a job's own crash-recovery
// checkpoint, distinct from the client-visible Spec.Checkpoint. Empty
// without a data dir.
func (s *Server) durablePath(j *Job) string {
	if s.dataDir == "" {
		return ""
	}
	return filepath.Join(s.dataDir, "jobs", j.ID+".ck")
}

// saveCk writes a snapshot crash-safely.
func saveCk(path string, snap *checkpoint.Snapshot) error {
	if err := checkpoint.SaveFile(path, snap); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// execute runs one attempt of a job and classifies the outcome:
// terminal state, error message, and whether the outcome is a
// retryable fault. It resumes from the job's durable checkpoint when
// one exists (falling back to the client's own Load on corruption),
// runs the attempt as one live core.Sim — supervised in the distributed
// modes, so faults roll back in-process first — checkpointing durably
// at every multiple of CheckpointEvery, and enforces the wall-clock and progress-floor deadlines
// through the core.Config.Stop surface.
func (s *Server) execute(j *Job) (st State, errMsg string, retryable bool) {
	spec := &j.Spec
	durable := s.durablePath(j)

	eff := *spec
	fromDurable := false
	if durable != "" {
		if _, err := os.Stat(durable); err == nil {
			eff.Load = durable
			fromDurable = true
		}
	}
	cfg, restored, err := eff.config()
	if err != nil && fromDurable {
		// The durable checkpoint is unusable (torn write the frame
		// check caught, or physics drift): fall back to the client's
		// own resume point rather than wedging the job.
		s.logf("demd: job %s: durable checkpoint unusable (%v); falling back", j.ID, err)
		eff.Load = spec.Load
		fromDurable = false
		cfg, restored, err = eff.config()
	}
	if err != nil {
		return StateFailed, err.Error(), false
	}
	total := spec.Iters
	if remaining := total - restored; remaining <= 0 {
		if fromDurable && restored >= total {
			// The previous daemon finished the work and died inside the
			// window between the final durable checkpoint and the
			// journal acknowledgment; adopt the result instead of
			// re-running or failing.
			if spec.Checkpoint != "" && !j.ckWritten.Load() {
				snap, lerr := checkpoint.LoadFile(durable)
				if lerr == nil {
					lerr = checkpoint.SaveFile(spec.Checkpoint, snap)
				}
				if lerr != nil {
					return StateFailed, fmt.Sprintf("checkpoint: %v", lerr), false
				}
				j.ckWritten.Store(true)
			}
			return StateDone, "", false
		}
		return StateFailed, fmt.Sprintf("checkpoint %s already holds %d iterations; iters=%d leaves nothing to run",
			eff.Load, restored, total), false
	}

	j.itersStart.Store(int64(restored))
	j.itersDone.Store(int64(restored))
	cfg.CollectState = spec.Checkpoint != "" || durable != ""
	if spec.WatchdogMs > 0 {
		cfg.Watchdog = time.Duration(spec.WatchdogMs) * time.Millisecond
	} else {
		cfg.Watchdog = s.opts.Watchdog
	}
	cfg.Faults = j.faultPlan()

	// The stop hook multiplexes cancellation, the wall-clock deadline
	// and the progress floor onto core's one cooperative-stop surface;
	// the job's stopReason records which fired first. The hook is
	// polled from a single goroutine per attempt (rank 0 / the run
	// loop), so the window locals are unshared.
	deadline := time.Duration(spec.DeadlineMs) * time.Millisecond
	stallWin := time.Duration(spec.StallWindowMs) * time.Millisecond
	if stallWin <= 0 {
		stallWin = 2 * time.Second
	}
	attemptStart := time.Now()
	winStart := attemptStart
	winIters := int64(restored)
	cfg.Stop = func() bool {
		if j.stop.Load() {
			return true
		}
		now := time.Now()
		if deadline > 0 && now.Sub(attemptStart) > deadline {
			j.trip(stopDeadline)
			return true
		}
		if spec.MinStepsPerS > 0 {
			if el := now.Sub(winStart); el >= stallWin {
				done := j.itersDone.Load()
				if rate := float64(done-winIters) / el.Seconds(); rate < spec.MinStepsPerS {
					j.trip(stopStalled)
					return true
				}
				winStart, winIters = now, done
			}
		}
		return false
	}

	every := spec.CheckpointEvery
	if every == 0 {
		every = s.opts.CheckpointEvery
	}
	cfg.OnStep = func(iter int, epot, ekin float64) {
		j.itersDone.Store(int64(restored + iter + 1))
		j.publishEvent(Event{Event: "step", Iter: restored + iter, Epot: epot, Ekin: ekin})
	}

	var sim *core.Sim
	if cfg.Mode.Distributed() {
		sim, err = core.OpenSupervised(cfg, core.FTConfig{
			SnapshotEvery: 1,
			OnFault: func(attempt int, fe *fault.Error) {
				s.logf("demd: job %s in-run fault (attempt %d): %v", j.ID, attempt, fe)
			},
		})
	} else {
		sim, err = core.Open(cfg)
	}
	// A durable checkpoint reorders the stores, so the grid is part of
	// the trajectory; it is absolute — a crashed job resumes mid-grid with
	// a short first chunk — so a recovered job lands on an unbroken one's bits.
	var save func(*core.Result, int) error
	var last *checkpoint.Snapshot // what the durable file holds
	if durable != "" {
		save = func(res *core.Result, done int) error {
			snap, err := checkpoint.FromResult(&cfg, res, done)
			if err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
			last = snap
			return saveCk(durable, snap)
		}
	}
	done := restored
	if err == nil {
		defer sim.Close()
		done, err = sim.AdvanceTo(restored, total, every, save)
	}
	wasCanceled := errors.Is(err, core.ErrCanceled)
	if err != nil && !wasCanceled {
		if j.stopReason.Load() == stopCancel {
			// Canceled while the supervisor was mid-recovery: the
			// attempt has no resumable result, but the user asked
			// for cancellation, not failure.
			return StateCanceled, "", false
		}
		return StateFailed, err.Error(), fault.From(err) != nil
	}
	j.itersDone.Store(int64(done))

	if spec.Checkpoint != "" {
		// AdvanceTo's last durable save was of this very state: the
		// client's copy is the same snapshot written a second time.
		if last == nil {
			if last, err = checkpoint.FromResult(&cfg, sim.Result(), done); err != nil {
				return StateFailed, fmt.Sprintf("checkpoint: %v", err), false
			}
		}
		if serr := saveCk(spec.Checkpoint, last); serr != nil {
			return StateFailed, serr.Error(), false
		}
		j.ckWritten.Store(true)
	}
	if wasCanceled {
		switch j.stopReason.Load() {
		case stopDeadline:
			return StateFailed, fmt.Sprintf("wall-clock deadline %s exceeded after %d/%d iterations",
				deadline, done, total), false
		case stopStalled:
			return StateFailed, fmt.Sprintf("progress below %g steps/s over %s (%d/%d iterations)",
				spec.MinStepsPerS, stallWin, done, total), true
		default:
			return StateCanceled, "", false
		}
	}
	return StateDone, "", false
}

// handleConn serves one client: a loop of JSON requests answered by
// JSON responses. "subscribe" turns the connection into an event
// stream until the job's stream ends (or the client is dropped for
// falling behind); afterwards the command loop resumes.
func (s *Server) handleConn(c net.Conn) {
	defer s.connWG.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, c)
		s.connMu.Unlock()
		c.Close()
	}()
	dec := json.NewDecoder(c)
	enc := json.NewEncoder(c)
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			return // EOF or garbage; either way the conversation is over
		}
		var resp *Response
		switch req.Cmd {
		case "submit":
			resp = s.Submit(req.Job)
		case "status":
			resp = s.Status(req.ID)
		case "cancel":
			resp = s.Cancel(req.ID)
		case "list":
			resp = s.List()
		case "stats":
			resp = s.ServerStats()
		case "shutdown":
			enc.Encode(&Response{OK: true})
			go s.Shutdown() // async: Shutdown waits for this very handler
			return
		case "subscribe":
			s.mu.Lock()
			job, ok := s.jobs[req.ID]
			s.mu.Unlock()
			if !ok {
				resp = &Response{OK: false, Error: fmt.Sprintf("no job %q", req.ID)}
				break
			}
			if err := enc.Encode(&Response{OK: true, ID: req.ID}); err != nil {
				return
			}
			if !s.streamEvents(c, job) {
				return
			}
			continue
		default:
			resp = &Response{OK: false, Error: fmt.Sprintf("unknown command %q (submit|status|cancel|list|subscribe|stats|shutdown)", req.Cmd)}
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// writeEventLine writes one already-framed event line under the write
// deadline, charging the job's byte counter; false means the
// connection is dead.
func (s *Server) writeEventLine(c net.Conn, job *Job, b []byte) bool {
	c.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
	n, err := c.Write(b)
	job.bytesOut.Add(int64(n))
	c.SetWriteDeadline(time.Time{})
	return err == nil
}

// streamEvents forwards a job's events to the connection until the
// stream ends. Returns false when the connection is dead and the
// handler should bail out.
//
// A subscribe that arrives after the job's stream already ended gets a
// deterministic terminal replay: one synthesized state event carrying
// the final state, then the eof terminator. (Subscribers attached
// while the job ran saw the real terminal event — publishFinal
// delivers it and closes the stream under one lock, so there is no
// window to attach between the two.)
func (s *Server) streamEvents(c net.Conn, job *Job) bool {
	sub, ended := job.hub.subscribe(s.opts.EventBuffer)
	if ended {
		st, errMsg, _ := job.snapshot()
		final := Event{
			Event: "state", ID: job.ID, State: st.String(), Error: errMsg,
			Iter: int(job.itersDone.Load()),
		}
		if b, err := json.Marshal(final); err == nil {
			if !s.writeEventLine(c, job, append(b, '\n')) {
				return false
			}
		}
	}
	for b := range sub.ch {
		if !s.writeEventLine(c, job, b) {
			job.hub.unsubscribe(sub)
			// Drain whatever was buffered so the publisher side's
			// close finds an empty channel promptly.
			for range sub.ch {
			}
			return false
		}
	}
	// Terminate the stream deterministically: "dropped" when the
	// subscriber fell behind and lost events (reconnect and resync via
	// status), "eof" on a clean end.
	final := Event{Event: "eof", ID: job.ID}
	if sub.evicted.Load() {
		final.Event = "dropped"
	}
	if b, err := json.Marshal(final); err == nil {
		if !s.writeEventLine(c, job, append(b, '\n')) {
			return false
		}
	}
	return true
}
