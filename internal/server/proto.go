// Package server is the simulation-as-a-service daemon behind
// cmd/demd: a long-running process that owns core.Run as a cancellable,
// checkpointed, resumable job. Clients speak a line-oriented JSON
// command protocol over a unix or TCP socket (one JSON object per
// request, one per response — `nc` is a usable client), jobs flow
// through a bounded queue into a fixed worker pool (submissions beyond
// the queue's depth are rejected with a retry-after hint instead of
// piling up), and per-step timeline/energy events fan out to any
// number of subscribers, with slow subscribers dropped rather than
// allowed to stall the simulation. See DESIGN.md §15.
package server

// Request is one client command. Cmd selects the verb; the other
// fields are per-verb arguments.
//
//	{"cmd":"submit","job":{"d":2,"n":400,"iters":50,"mode":"serial"}}
//	{"cmd":"status","id":"j1"}
//	{"cmd":"cancel","id":"j1"}
//	{"cmd":"list"}
//	{"cmd":"subscribe","id":"j1"}
//	{"cmd":"stats"}
//	{"cmd":"shutdown"}
type Request struct {
	Cmd string   `json:"cmd"`
	ID  string   `json:"id,omitempty"`
	Job *JobSpec `json:"job,omitempty"`
}

// JobSpec describes one simulation job over the wire. Zero fields take
// the same defaults core.Default gives the CLI; Iters is cumulative
// when Load resumes a checkpoint, exactly like demrun's -iters.
type JobSpec struct {
	D     int     `json:"d,omitempty"`    // spatial dimensions (default 3)
	N     int     `json:"n"`              // particle count (required)
	Iters int     `json:"iters"`          // measured iterations, cumulative under load (required)
	Mode  string  `json:"mode,omitempty"` // serial | openmp | mpi | hybrid | mpism (default serial)
	P     int     `json:"p,omitempty"`    // ranks (default 1)
	T     int     `json:"t,omitempty"`    // threads per rank (default 1)
	BPP   int     `json:"bpp,omitempty"`  // blocks per process (default 1)
	Seed  int64   `json:"seed,omitempty"` // random seed (default 1)
	Warm  int     `json:"warmup,omitempty"`
	RC    float64 `json:"rc,omitempty"` // cutoff factor rc/rmax (default 1.5)
	Grav  float64 `json:"gravity,omitempty"`
	Fill  float64 `json:"fill,omitempty"` // clustered-bed fill fraction
	Vel   float64 `json:"vel,omitempty"`  // initial velocity scale
	Damp  float64 `json:"damp,omitempty"`

	// NoReorder disables the cache particle reordering. No resume
	// guarantee of the daemon needs it (see core.Config.Stop).
	NoReorder bool `json:"noreorder,omitempty"`

	// Checkpoint, when set, is the path the job writes crash-safe
	// checkpoints to: the final state on completion, and the partial
	// state when the job is canceled — which is what makes a canceled
	// job resumable. Load, when set, resumes from an existing
	// checkpoint file; the job then runs Iters minus the checkpoint's
	// completed count.
	Checkpoint string `json:"checkpoint,omitempty"`
	Load       string `json:"load,omitempty"`

	// MaxRestarts is the job's retry budget: how many times the daemon
	// re-queues it (with exponential backoff) after a retryable fault
	// before declaring it failed. 0 takes the server default
	// (Options.MaxRestarts); negative means no retries. The count of
	// restarts consumed is journaled, so the budget survives daemon
	// restarts.
	MaxRestarts int `json:"maxRestarts,omitempty"`

	// CheckpointEvery overrides the server's durable checkpoint cadence
	// for this job: every that many measured iterations the job's state
	// is saved under the daemon's data dir, bounding how much work a
	// daemon crash can lose. 0 takes the server default; it only
	// matters when the daemon runs with a data dir.
	CheckpointEvery int `json:"checkpointEvery,omitempty"`

	// DeadlineMs is a wall-clock budget for one execution attempt,
	// measured from when a worker picks the job up. A job over its
	// deadline checkpoints, frees the worker and lands in failed —
	// deadline overruns are not retried (the next attempt would just
	// time out again).
	DeadlineMs int64 `json:"deadlineMs,omitempty"`

	// MinStepsPerS is a progress floor: if, over a sliding window of
	// StallWindowMs (default 2000), the job averages fewer measured
	// steps per second than this, it is declared stalled, checkpointed,
	// and treated as a retryable fault — a stall is often environmental
	// (noisy neighbour, cold cache) and worth another attempt.
	MinStepsPerS  float64 `json:"minStepsPerSec,omitempty"`
	StallWindowMs int64   `json:"stallWindowMs,omitempty"`

	// WatchdogMs arms core.Config.Watchdog for this job: an attempt
	// whose step loop goes silent that long is killed from inside the
	// run with a timeout fault (which is retryable). 0 takes the server
	// default (Options.Watchdog).
	WatchdogMs int64 `json:"watchdogMs,omitempty"`

	// ChaosKill ("rank@step") arms a fault-injection kill for the job,
	// exercising the supervise/retry path end to end. The kill fires
	// once per job — the retry then runs clean — unless
	// ChaosEveryAttempt re-arms it on every attempt, which models a
	// persistent fault and drains the restart budget. Distributed modes
	// only.
	ChaosKill         string `json:"chaosKill,omitempty"`
	ChaosEveryAttempt bool   `json:"chaosEveryAttempt,omitempty"`
}

// Response answers one Request. OK false carries Error; a rejected
// submit additionally carries RetryAfterMs (backpressure: try again
// after that many milliseconds).
type Response struct {
	OK           bool         `json:"ok"`
	Error        string       `json:"error,omitempty"`
	RetryAfterMs int64        `json:"retryAfterMs,omitempty"`
	ID           string       `json:"id,omitempty"`    // submit: the new job's id
	Job          *JobStatus   `json:"job,omitempty"`   // status
	Jobs         []*JobStatus `json:"jobs,omitempty"`  // list
	Stats        *Stats       `json:"stats,omitempty"` // stats
}

// JobStatus is the externally visible state of one job, including the
// per-job counters the observability surface is built on.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"` // queued | running | done | canceled | failed
	Error string `json:"error,omitempty"`

	ItersDone  int     `json:"itersDone"`  // measured iterations completed (cumulative)
	ItersTotal int     `json:"itersTotal"` // requested cumulative total
	StepsPerS  float64 `json:"stepsPerSec,omitempty"`

	Subscribers   int   `json:"subscribers"`
	EventsSent    int64 `json:"eventsSent"`
	EventsDropped int64 `json:"eventsDropped"` // events lost to slow subscribers
	BytesStreamed int64 `json:"bytesStreamed"`

	Checkpoint string `json:"checkpoint,omitempty"` // path of the last checkpoint written

	// Restarts counts execution attempts consumed beyond the first;
	// Recovered marks a job the daemon re-adopted from its journal
	// after a restart. Both survive daemon restarts.
	Restarts  int  `json:"restarts,omitempty"`
	Recovered bool `json:"recovered,omitempty"`
}

// Stats is the server-wide counter snapshot.
type Stats struct {
	Workers    int   `json:"workers"`
	QueueDepth int   `json:"queueDepth"` // jobs waiting (bound: QueueCap)
	QueueCap   int   `json:"queueCap"`
	Running    int   `json:"running"`
	Submitted  int64 `json:"submitted"`
	Rejected   int64 `json:"rejected"` // backpressure rejections
	Completed  int64 `json:"completed"`
	Canceled   int64 `json:"canceled"`
	Failed     int64 `json:"failed"`
	Retried    int64 `json:"retried"`   // re-queues after retryable faults
	Recovered  int64 `json:"recovered"` // jobs re-adopted from the journal at startup
}

// Event is one line of a subscription stream. Type "step" carries the
// per-iteration energies; "state" announces lifecycle transitions
// (running, done, canceled, failed). Every stream ends with exactly
// one terminator line: "eof" after a clean end (for a job that already
// finished, the stream is just the terminator), or "dropped" when the
// subscriber fell too far behind and was evicted, losing events.
type Event struct {
	Event string  `json:"event"` // step | state | eof | dropped
	ID    string  `json:"id"`
	Iter  int     `json:"iter,omitempty"`
	Epot  float64 `json:"epot,omitempty"`
	Ekin  float64 `json:"ekin,omitempty"`
	State string  `json:"state,omitempty"`
	Error string  `json:"error,omitempty"`
}
