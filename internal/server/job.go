package server

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hybriddem/internal/checkpoint"
	"hybriddem/internal/core"
	"hybriddem/internal/mp"
)

// State is a job's position in its lifecycle. Transitions:
//
//	queued ──────▶ running ─▶ done
//	   ▲              ├─────▶ canceled   (Stop hook honoured at a step boundary)
//	   │              ├─────▶ failed
//	   │              └─────▶ queued     (retryable fault, restart budget left:
//	   │                                  re-queued after exponential backoff)
//	   └─────────▶ canceled              (canceled before a worker picked it up)
//
// A daemon restart demotes a journaled running job back to queued (its
// durable checkpoint carries the progress) and re-enqueues it, marked
// recovered.
//
// done, canceled and failed are terminal. A canceled job that was
// given a Checkpoint path is resumable: submit a new job with Load set
// to that path and the same cumulative Iters.
type State int32

const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateCanceled
	StateFailed
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateCanceled:
		return "canceled"
	case StateFailed:
		return "failed"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Why a job's step loop was asked to stop. Cancellation, a wall-clock
// deadline and a progress stall all pull the same core.Config.Stop
// lever; the reason, recorded first-wins, tells the worker which
// terminal (or retry) path the stopped run takes.
const (
	stopNone int32 = iota
	stopCancel
	stopDeadline
	stopStalled
)

// Job is one submitted simulation: its spec, lifecycle state, stop
// flag, event hub and counters. All mutable fields are either atomics
// or guarded by mu; the worker goroutine, connection handlers and the
// scheduler touch jobs concurrently.
type Job struct {
	ID   string
	Spec JobSpec

	// seq is the numeric part of ID, journaled so job ids stay
	// monotonic across daemon restarts.
	seq int

	mu      sync.Mutex
	state   State
	errMsg  string
	started time.Time // when the worker picked it up

	itersDone  atomic.Int64 // cumulative measured iterations completed
	itersStart atomic.Int64 // iterations restored at the start of this attempt

	stop       atomic.Bool  // the core.Config.Stop hook reads this
	stopReason atomic.Int32 // first stop* reason to fire wins

	restarts  atomic.Int32 // execution attempts consumed beyond the first
	recovered bool         // re-adopted from the journal (set before workers start)
	cancelReq bool         // journal replay only: a cancel record was seen

	// chaos is the job's armed fault plan, built once so the injected
	// kill fires exactly once across retries (mp.FaultPlan's own
	// semantics) unless the spec asks for a fresh plan per attempt.
	chaosOnce sync.Once
	chaos     *mp.FaultPlan

	hub *hub

	bytesOut  atomic.Int64 // bytes actually written to subscriber conns
	ckWritten atomic.Bool  // a checkpoint exists at Spec.Checkpoint
}

func newJob(id string, seq int, spec JobSpec) *Job {
	return &Job{ID: id, seq: seq, Spec: spec, hub: newHub()}
}

// setState transitions the job, recording the error message (done
// clears a previous attempt's fault message), and returns the previous
// state.
func (j *Job) setState(s State, errMsg string) State {
	j.mu.Lock()
	prev := j.state
	j.state = s
	j.errMsg = errMsg
	if s == StateRunning {
		j.started = time.Now()
	}
	j.mu.Unlock()
	return prev
}

// snapshot returns the current state and error under the lock.
func (j *Job) snapshot() (State, string, time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errMsg, j.started
}

// trip asks the step loop to stop for the given reason. The first
// reason to fire wins; later trips (a cancel racing a deadline) keep
// the original classification.
func (j *Job) trip(reason int32) {
	j.stopReason.CompareAndSwap(stopNone, reason)
	j.stop.Store(true)
}

// cancel requests cancellation. A queued job the scheduler has not
// started flips straight to canceled when the worker dequeues it; a
// running one stops at the next step boundary.
func (j *Job) cancel() {
	j.trip(stopCancel)
}

// resetStop re-arms the stop surface for a fresh execution attempt
// (retry after a fault).
func (j *Job) resetStop() {
	j.stop.Store(false)
	j.stopReason.Store(stopNone)
}

// faultPlan returns the job's armed fault plan, or nil when the spec
// injects no faults. The default plan is shared across attempts, so
// the kill fires once and the retry runs clean (a transient fault);
// ChaosEveryAttempt builds a fresh armed plan per call, modeling a
// persistent fault that drains the restart budget.
func (j *Job) faultPlan() *mp.FaultPlan {
	if j.Spec.ChaosKill == "" {
		return nil
	}
	rank, step, err := mp.ParseKill(j.Spec.ChaosKill)
	if err != nil {
		return nil // Submit validated this; unreachable for accepted jobs
	}
	if j.Spec.ChaosEveryAttempt {
		p := mp.NewFaultPlan(1)
		p.ArmKill(rank, step)
		return p
	}
	j.chaosOnce.Do(func() {
		j.chaos = mp.NewFaultPlan(1)
		j.chaos.ArmKill(rank, step)
	})
	return j.chaos
}

// status assembles the wire-visible JobStatus including counters.
func (j *Job) status() *JobStatus {
	state, errMsg, started := j.snapshot()
	st := &JobStatus{
		ID:            j.ID,
		State:         state.String(),
		Error:         errMsg,
		ItersDone:     int(j.itersDone.Load()),
		ItersTotal:    j.Spec.Iters,
		Subscribers:   j.hub.count(),
		EventsSent:    j.hub.sent.Load(),
		EventsDropped: j.hub.dropped.Load(),
		BytesStreamed: j.bytesOut.Load(),
		Restarts:      int(j.restarts.Load()),
		Recovered:     j.recovered,
	}
	if j.ckWritten.Load() {
		st.Checkpoint = j.Spec.Checkpoint
	}
	if state == StateRunning && !started.IsZero() {
		if el := time.Since(started).Seconds(); el > 0 {
			st.StepsPerS = float64(j.itersDone.Load()-j.itersStart.Load()) / el
		}
	}
	return st
}

// publishEvent marshals and fans out one event. The newline framing
// is appended here, once, so every subscriber shares one immutable
// byte slice.
func (j *Job) publishEvent(ev Event) {
	ev.ID = j.ID
	b, err := json.Marshal(ev)
	if err != nil {
		return // the event types marshal by construction
	}
	j.hub.publish(append(b, '\n'))
}

// publishFinalEvent marshals the terminal event and delivers it
// atomically with the stream close (see hub.publishFinal), so every
// attached subscriber sees exactly one terminal state line before EOF.
func (j *Job) publishFinalEvent(ev Event) {
	ev.ID = j.ID
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	j.hub.publishFinal(append(b, '\n'))
}

// config translates the wire spec into a validated core.Config plus
// the iterations already held by the Load checkpoint (0 without Load).
// The run executes spec.Iters minus that count.
func (spec *JobSpec) config() (core.Config, int, error) {
	d := spec.D
	if d == 0 {
		d = 3
	}
	if spec.N < 1 {
		return core.Config{}, 0, fmt.Errorf("job needs n >= 1 (got %d)", spec.N)
	}
	if spec.Iters < 1 {
		return core.Config{}, 0, fmt.Errorf("job needs iters >= 1 (got %d)", spec.Iters)
	}
	cfg := core.Default(d, spec.N)
	if spec.Mode != "" {
		m, err := core.ModeByName(spec.Mode)
		if err != nil {
			return core.Config{}, 0, err
		}
		cfg.Mode = m
	}
	if spec.P > 0 {
		cfg.P = spec.P
	}
	if spec.T > 0 {
		cfg.T = spec.T
	}
	if spec.BPP > 0 {
		cfg.BlocksPerProc = spec.BPP
	}
	if spec.Seed != 0 {
		cfg.Seed = spec.Seed
	}
	if spec.RC > 0 {
		cfg.RCFactor = spec.RC
	}
	if spec.NoReorder {
		cfg.Reorder = false
	}
	cfg.Warmup = spec.Warm
	cfg.Gravity = spec.Grav
	cfg.FillHeight = spec.Fill
	cfg.InitVel = spec.Vel
	cfg.Spring.Damp = spec.Damp

	restored := 0
	if spec.Load != "" {
		snap, err := checkpoint.LoadFile(spec.Load)
		if err != nil {
			return core.Config{}, 0, fmt.Errorf("load %s: %w", spec.Load, err)
		}
		if err := snap.Apply(&cfg); err != nil {
			return core.Config{}, 0, fmt.Errorf("load %s: %w", spec.Load, err)
		}
		restored = snap.Iters
		// The checkpointed state already includes the original warm-up;
		// running it again would silently advance the physics.
		cfg.Warmup = 0
	}
	if err := cfg.Validate(); err != nil {
		return core.Config{}, 0, err
	}
	return cfg, restored, nil
}
