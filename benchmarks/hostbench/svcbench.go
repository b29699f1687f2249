package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"hybriddem/internal/server"
)

// daemon is an in-process demd: the real server package behind a real
// unix socket in a scratch directory, so the clients below pay the
// whole wire path (marshal, socket, journal fsync, checkpoint files).
type daemon struct {
	srv    *server.Server
	dir    string // scratch dir holding the socket and the data dir
	sock   string
	served chan error
	down   bool
}

func (d *daemon) dataDir() string { return filepath.Join(d.dir, "data") }

// startDaemon creates a fresh scratch directory under workDir and
// serves a two-worker daemon with a durable data dir from it.
func startDaemon(workDir string) (*daemon, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "svc-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, sock: filepath.Join(dir, "d.sock"), served: make(chan error, 1)}
	d.srv, err = server.New(server.Options{Workers: 2, DataDir: d.dataDir()})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("unix", d.sock)
	if err != nil {
		d.srv.Shutdown()
		os.RemoveAll(dir)
		return nil, err
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// shutdown stops the daemon and waits for its accept loop; the scratch
// directory (journal, checkpoint files) stays for the caller to read.
func (d *daemon) shutdown() error {
	if d.down {
		return nil
	}
	d.down = true
	d.srv.Shutdown()
	return <-d.served
}

// stop shuts the daemon down and removes its scratch directory.
func (d *daemon) stop() error {
	err := d.shutdown()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// client is one wire-protocol connection: JSON lines both ways.
type client struct {
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder
}

func dial(sock string) (*client, error) {
	conn, err := net.Dial("unix", sock)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(conn)}, nil
}

func (c *client) close() { c.conn.Close() }

func (c *client) call(req *server.Request) (*server.Response, error) {
	if err := c.enc.Encode(req); err != nil {
		return nil, err
	}
	var resp server.Response
	if err := c.dec.Decode(&resp); err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("%s: %s", req.Cmd, resp.Error)
	}
	return &resp, nil
}

// measureStart times a daemon's start as a client sees it: server.New
// on an empty data dir (journal created and synced, workers up), the
// socket, and the first request answered.
func measureStart(workDir string) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(workDir)
	if err != nil {
		return nil, 0, err
	}
	c, err := dial(d.sock)
	if err == nil {
		_, err = c.call(&server.Request{Cmd: "stats"})
		c.close()
	}
	el := time.Since(t0)
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, el, nil
}

// jobTiming is one job as its client saw it; times are offsets from
// the epoch handed to runJob.
type jobTiming struct {
	Client    int
	Submit    time.Duration // submit request sent
	Ack       time.Duration // job id received
	FirstStep time.Duration // first step event line received; 0 if the stream carried none
	End       time.Duration // "eof" received
	Done      time.Duration // status answered: the client is free for its next job

	Dropped    bool    // a stream of this job ended "dropped" and the client had to attach again
	Epot, Ekin float64 // from the last step event seen
	LastIter   int
	Err        error
}

func (t *jobTiming) firstEventMs() float64 { return ms(t.FirstStep - t.Submit) }
func (t *jobTiming) jobMs() float64        { return ms(t.End - t.Submit) }
func (t *jobTiming) cycleMs() float64      { return ms(t.Done - t.Submit) }

// runJob drives one job the way a waiting caller would: submit,
// subscribe on the same connection, read the stream to its end, then
// ask for the status. Success is read from the status verb, never from
// the stream: when both cores simulate, a few percent of the streams of
// fast jobs end "dropped" (slow-subscriber eviction) in the middle of a
// job that goes on to finish.
func (c *client) runJob(spec *server.JobSpec, epoch time.Time) jobTiming {
	var t jobTiming
	t.LastIter = -1
	t.Submit = time.Since(epoch)
	resp, err := c.call(&server.Request{Cmd: "submit", Job: spec})
	t.Ack = time.Since(epoch)
	if err != nil {
		t.Err = err
		return t
	}
	id := resp.ID
	subscribe := &server.Request{Cmd: "subscribe", ID: id}
	if _, err := c.call(subscribe); err != nil {
		t.Err = err
		return t
	}
	for t.End == 0 {
		var ev server.Event
		if err := c.dec.Decode(&ev); err != nil {
			t.Err = fmt.Errorf("job %s: stream: %w", id, err)
			return t
		}
		now := time.Since(epoch)
		switch ev.Event {
		case "step":
			if t.FirstStep == 0 {
				t.FirstStep = now
			}
			t.LastIter, t.Epot, t.Ekin = ev.Iter, ev.Epot, ev.Ekin
		case "dropped":
			// Evicted for reading too slowly while the job runs on:
			// attach again and follow it to its real end.
			t.Dropped = true
			if _, err := c.call(subscribe); err != nil {
				t.Err = err
				return t
			}
		case "eof":
			t.End = now
		}
	}
	resp, err = c.call(&server.Request{Cmd: "status", ID: id})
	t.Done = time.Since(epoch)
	switch {
	case err != nil:
		t.Err = err
	case resp.Job.State != "done" || resp.Job.ItersDone != spec.Iters:
		t.Err = fmt.Errorf("job %s: state %s after %d of %d iterations: %s",
			id, resp.Job.State, resp.Job.ItersDone, spec.Iters, resp.Job.Error)
	}
	return t
}

// svcStats is the outcome of the service loop of one workload.
type svcStats struct {
	StartS []float64 // daemon start → first request answered, per start

	EpochA   time.Time   // phase A job times are offsets from here
	Jobs     []jobTiming // phase A, every job of both clients
	EpochB   time.Time   // phase B job times are offsets from here
	Unbroken []jobTiming // phase B, index = pair
	Chunked  []jobTiming
	tally

	Stats       *server.Stats // the stats verb after phase B
	AllocBytesA uint64        // heap bytes allocated by the whole process during phase A

	d *daemon // still up, its data dir still on disk, until stop
}

func (s *svcStats) count(what string, t *jobTiming) {
	s.Attempted++
	if t.Err != nil {
		s.fail("%s: %v", what, t.Err)
	}
}

// chunkMs is the cost of one durable chunk boundary: the chunked job's
// wall time over the unbroken job's, spread over the boundaries only
// the chunked job crosses. Every pair runs the same two deterministic
// jobs, so the reported value sets the fastest chunked run against the
// fastest unbroken one (what a run took longer than its twin is the
// host's doing); the per-pair differences are returned beside it.
func (s *svcStats) chunkMs(boundaries int) (best float64, perPair []float64) {
	minC, minU := math.Inf(1), math.Inf(1)
	for i := range s.Chunked {
		if s.Chunked[i].Err == nil && s.Unbroken[i].Err == nil {
			c, u := s.Chunked[i].jobMs(), s.Unbroken[i].jobMs()
			perPair = append(perPair, (c-u)/float64(boundaries))
			minC, minU = math.Min(minC, c), math.Min(minU, u)
		}
	}
	if len(perPair) == 0 {
		return math.NaN(), nil
	}
	return (minC - minU) / float64(boundaries), perPair
}

// jobsPerS is phase A's throughput: two clients over the median job
// cycle (submit to status answered; the next submit follows at once).
// Over an undisturbed phase this is the plain count over wall time; the
// median keeps it there when the host slows part of the phase down.
func (s *svcStats) jobsPerS() float64 {
	var cycles []float64
	for i := range s.Jobs {
		if s.Jobs[i].Err == nil {
			cycles = append(cycles, s.Jobs[i].cycleMs())
		}
	}
	return nClients * 1000 / median(cycles)
}

func (s *svcStats) firstEventMs() []float64 {
	var xs []float64
	for i := range s.Jobs {
		if t := &s.Jobs[i]; t.Err == nil && t.FirstStep > 0 {
			xs = append(xs, t.firstEventMs())
		}
	}
	return xs
}

// spans renders the jobs as client-side spans on the trace's clock, one
// track per connection: each job with its protocol phases as children
// (submit to acknowledgement, acknowledgement to the first step event —
// queue wait, placement, first list build and first step — and the rest
// of the stream).
func (s *svcStats) spans(workload string, traceEpoch time.Time) []*recorder {
	const phaseBClient = 2
	recs := make([]*recorder, phaseBClient+1)
	for i := range recs {
		recs[i] = newRecorder(workload, "service", i, traceEpoch, 4*(len(s.Jobs)+2*len(s.Chunked)), true)
	}
	addJob := func(r *recorder, name string, t *jobTiming, base time.Duration, n int) {
		if t.Err != nil {
			return
		}
		job := r.add(name, base+t.Submit, base+t.End, -1, n)
		r.add("server.submit", base+t.Submit, base+t.Ack, job, n)
		if t.FirstStep > 0 {
			r.add("server.first_step", base+t.Ack, base+t.FirstStep, job, n)
			r.add("server.stream", base+t.FirstStep, base+t.End, job, n)
		}
	}
	for i := range s.Jobs {
		t := &s.Jobs[i]
		addJob(recs[t.Client], "job", t, s.EpochA.Sub(traceEpoch), i)
	}
	for i := range s.Chunked {
		addJob(recs[phaseBClient], "job.unbroken", &s.Unbroken[i], s.EpochB.Sub(traceEpoch), i)
		addJob(recs[phaseBClient], "job.chunked", &s.Chunked[i], s.EpochB.Sub(traceEpoch), i)
	}
	return recs
}

// stop shuts down the daemon benchService left running for its caller
// (the per-layer pass times a recovery on its data dir first) and
// removes its files.
func (s *svcStats) stop() error { return s.d.stop() }

// nClients is the number of closed-loop connections of phase A: one
// per CPU, so both cores simulate.
const nClients = 2

// startReps is how many times the daemon start is timed; the median is
// the service part of setup_s.
const startReps = 5

// benchService runs the service loop of a workload on its own bed.
//
// Phase A: two clients, each on its own connection, run the bed as
// short serial jobs back to back (closed loop) until the phase's time
// is up; every job is submitted, followed on its stream and confirmed
// by status.
//
// Phase B: one client runs pairs of the bed as an mpi P=2 job — once
// unbroken and once with a durable checkpoint every second iteration —
// alternating, so drift hits both sides alike.
func benchService(w *workload, seed int64, workDir string, phaseA, phaseB time.Duration, logf func(string, ...any)) (*svcStats, error) {
	s := &svcStats{}
	for len(s.StartS) < startReps {
		if s.d != nil {
			if err := s.d.stop(); err != nil {
				return nil, err
			}
		}
		d, el, err := measureStart(workDir)
		if err != nil {
			return nil, err
		}
		s.d = d
		s.StartS = append(s.StartS, el.Seconds())
	}
	d := s.d // the last start serves both phases

	// Phase A.
	spec := w.Bed.jobSpec("serial", 1, w.JobIters, w.JobEvery, seed)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	epoch := time.Now()
	s.EpochA = epoch
	per := make([][]jobTiming, nClients)
	errs := make([]error, nClients)
	var wg sync.WaitGroup
	for ci := 0; ci < nClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := dial(d.sock)
			if err != nil {
				errs[ci] = err
				return
			}
			defer c.close()
			for len(per[ci]) < 2 || time.Since(epoch) < phaseA {
				t := c.runJob(spec, epoch)
				t.Client = ci
				per[ci] = append(per[ci], t)
			}
		}(ci)
	}
	wg.Wait()
	phaseAS := time.Since(epoch).Seconds()
	runtime.ReadMemStats(&m1)
	s.AllocBytesA = m1.TotalAlloc - m0.TotalAlloc
	for ci := range per {
		if errs[ci] != nil {
			d.stop()
			return nil, errs[ci]
		}
		for i := range per[ci] {
			s.count(fmt.Sprintf("phase A client %d job %d", ci, i), &per[ci][i])
		}
		s.Jobs = append(s.Jobs, per[ci]...)
	}
	logf("  phase A: %d jobs in %.2fs", len(s.Jobs), phaseAS)

	// Phase B.
	c, err := dial(d.sock)
	if err != nil {
		d.stop()
		return nil, err
	}
	defer c.close()
	unbroken := w.Bed.jobSpec("mpi", 2, w.PairIters, 1000*w.PairIters, seed)
	chunked := w.Bed.jobSpec("mpi", 2, w.PairIters, cadence, seed)
	startB := time.Now()
	s.EpochB = startB
	var lastPair time.Duration
	for pair := 0; pair < w.MinPairs || time.Since(startB)+lastPair <= phaseB; pair++ {
		p0 := time.Now()
		u := c.runJob(unbroken, startB)
		k := c.runJob(chunked, startB)
		s.count(fmt.Sprintf("phase B pair %d unbroken", pair), &u)
		s.count(fmt.Sprintf("phase B pair %d chunked", pair), &k)
		s.Unbroken = append(s.Unbroken, u)
		s.Chunked = append(s.Chunked, k)
		lastPair = time.Since(p0)
	}
	logf("  phase B: %d pairs in %.2fs", len(s.Chunked), time.Since(startB).Seconds())
	// The same job run twice must end on the same bits, chunked or not:
	// every chunk boundary restarts from a canonical state.
	sameBits := func(what string, ts []jobTiming) {
		for i := 1; i < len(ts); i++ {
			a, b := &ts[0], &ts[i]
			if a.Err != nil || b.Err != nil {
				continue
			}
			if a.LastIter != w.PairIters-1 || b.LastIter != w.PairIters-1 {
				s.fail("phase B %s pair %d: stream ended at iteration %d and %d, want %d", what, i, a.LastIter, b.LastIter, w.PairIters-1)
			} else if a.Epot != b.Epot || a.Ekin != b.Ekin {
				s.fail("phase B %s pair %d: final energies (%.17g, %.17g) differ from pair 0's (%.17g, %.17g)",
					what, i, b.Epot, b.Ekin, a.Epot, a.Ekin)
			}
		}
	}
	sameBits("unbroken", s.Unbroken)
	sameBits("chunked", s.Chunked)

	if resp, err := c.call(&server.Request{Cmd: "stats"}); err == nil {
		s.Stats = resp.Stats
	}
	return s, nil
}
