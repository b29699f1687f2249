package core

import (
	"errors"
	"time"

	"hybriddem/internal/decomp"
	"hybriddem/internal/trace"
)

// stepper is what the one measured loop drives: the sharedSim of the
// Serial and OpenMP modes, or a rank's rankSim in the distributed ones.
// What they do differently at a step boundary is behind it.
type stepper interface {
	step() float64 // one iteration; the modelled seconds of its timed window
	stats() *tally
	rank() int                          // 0 leads: it fires the hooks and polls Stop
	agree(stop bool) bool               // the leader's verdict, known to every stepper
	faultPoint(step int)                // chaos injection site, before each step
	gather(arr *Arrangement, iters int) // collective; the leader receives the state after iters measured iterations
	report() part
}

// tally is a stepper's accounting: what step and rebuild maintain, and
// the measured window's accumulators, which belong to Sim.loop.
type tally struct {
	rebuilds   int
	viewSteps  int // steps whose force pass walked the contact-range view
	meanDist   float64
	epot, ekin float64
	iter       int

	forceTime, updateTime, commTime, collTime float64

	steps     int           // measured steps taken
	timed     float64       // modelled seconds of their timed windows
	wall      time.Duration // host time of the measured loops
	rebuilds0 int           // rebuilds before the measured window
	views0    int           // view steps before it
	clock0    float64       // virtual clock at its start
}

// part is one stepper's account at the end of an Advance; Result merges
// them.
type part struct {
	tally
	clock   float64
	nlinks  int
	tc      trace.Counters
	tree    *decomp.ORBTree // rank 0 under RebalanceORB
	iters   int             // the iteration the loop stopped before
	stopped bool            // ... because Stop asked
}

// Sim is a live simulation session: stores, grids, list buffers and —
// in the distributed modes — the rank goroutines with their teams and
// windows stay up between calls, so a run can be advanced in pieces,
// observed and checkpointed without being torn down and set up again.
// Run is Open, Advance, Result, Close. Not safe for concurrent use.
type Sim struct {
	cfg   Config
	sh    *sharedSim // the shared modes' engine
	w     *world     // the distributed modes' live engine
	parts []part     // per stepper, as of the end of the last Advance

	iters  int // measured iterations the live engine has completed
	hooked int // ... that Probe and OnStep have been told of (ahead of iters after a rollback)
	base   int // cumulative iterations before this session's first (AdvanceTo)

	arr Arrangement // the state the leader last gathered, in storage the session keeps

	// Supervision (supervisor.go); ft is nil for a session a fault ends.
	ft      *FTConfig
	layout  *decomp.Layout // nil in the shared modes
	snap    Arrangement    // the newest complete snapshot, which a rollback resumes from
	attempt int
	backoff time.Duration
}

// Open sets a simulation up — placement, first list build, warm-up —
// and returns the live session; a fault ends it (see OpenSupervised).
func Open(cfg Config) (*Sim, error) { return open(cfg, nil) }

func open(cfg Config, ft *FTConfig) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{cfg: cfg}
	if !cfg.Mode.Distributed() {
		sh := newSharedSim(cfg)
		for i := 0; i < cfg.Warmup; i++ {
			sh.step()
		}
		sh.forceTime, sh.updateTime = 0, 0 // the measured window opens here
		sh.rebuilds0, sh.views0, sh.clock0 = sh.rebuilds, sh.viewSteps, sh.nowClock()
		s.sh, s.parts = sh, make([]part, 1)
	} else {
		l, err := decomp.NewLayout(cfg.Box(), cfg.RC(), cfg.P, cfg.BlocksPerProc)
		if err != nil {
			return nil, err
		}
		s.layout = l
		if ft != nil { // ft is OpenSupervised's own copy
			if ft.MaxRetries == 0 {
				ft.MaxRetries = 3
			}
			if ft.SnapshotEvery < 1 {
				ft.SnapshotEvery = DefaultSnapshotEvery
			}
			s.ft, s.backoff = ft, ft.Backoff
		}
	}
	if err := s.run(func(st stepper) { s.parts[st.rank()] = st.report() }); err != nil {
		return nil, err
	}
	return s, nil
}

// run executes f on every stepper: inline in the shared modes, as one
// command to every rank in the distributed ones, where it first starts
// the world if it is down and answers a fault, under an FTConfig, by
// rolling back and running f again.
func (s *Sim) run(f func(stepper)) error {
	if s.sh != nil {
		f(s.sh)
		return nil
	}
	for {
		if s.w == nil {
			s.startWorld()
		}
		err := s.w.do(f)
		if err == nil {
			return nil
		}
		if err = s.rollback(err); err != nil {
			return err
		}
	}
}

// Advance runs n more measured iterations, fewer and ErrCanceled when
// Config.Stop asks (Result then reports how many). Any other error ends
// the session.
func (s *Sim) Advance(n int) error {
	to := s.iters + n
	if err := s.run(func(st stepper) { s.loop(st, to) }); err != nil {
		return err
	}
	s.iters = s.parts[0].iters
	if s.parts[0].stopped {
		return ErrCanceled
	}
	return nil
}

// loop is the measured loop of every mode, from the engine's current
// iteration up to iteration to: on the caller's goroutine in the shared
// modes, on every rank goroutine in lockstep in the distributed ones.
// After a rollback it starts earlier than its Advance did and replays.
func (s *Sim) loop(st stepper, to int) {
	cfg, t := &s.cfg, st.stats()
	lead := st.rank() == 0
	stopped := false
	start := time.Now()
	gathered := -1 // the iteration whose state this loop gathered last
	i := s.iters
	for ; i < to && !stopped; i++ {
		// Absolute step numbers: a chaos schedule means the same step
		// however the run is cut into sessions, chunks and retries.
		st.faultPoint(cfg.Warmup + s.base + i)
		t.timed += st.step()
		t.steps++
		// Each iteration reaches the hooks once: a rollback replays some,
		// and redelivering them would corrupt captures and event streams.
		fresh := lead && i >= s.hooked
		if snap := s.snapshotDue(i + 1); snap || cfg.Probe != nil {
			a := s.collect(st, i+1, snap)
			gathered = i + 1
			if fresh && cfg.Probe != nil {
				pos, vel := a.byID(cfg.Box())
				cfg.Probe(i, pos, vel)
			}
		}
		if fresh {
			if cfg.OnStep != nil {
				cfg.OnStep(i, t.epot, t.ekin)
			}
			s.hooked = i + 1
		}
		if cfg.Stop != nil {
			// The leader polls the hook; every step boundary is a state a
			// resume reproduces, so the request is honoured here.
			stopped = st.agree(lead && cfg.Stop())
		}
	}
	t.wall += time.Since(start)
	p := st.report()
	p.iters, p.stopped = i, stopped
	s.parts[st.rank()] = p
	if cfg.CollectState && gathered != i { // after the report: the gather is not part of the run it describes
		s.collect(st, i, false)
	}
}

// collect gathers the state after the session's measured iteration it
// and returns where the leader holds it. A snapshot the leader keeps as
// the rollback state, trading storage with the one it replaces: a
// gather a fault cuts short lands in the other buffer, never in the
// state a rollback needs.
func (s *Sim) collect(st stepper, it int, snapshot bool) *Arrangement {
	st.gather(&s.arr, it)
	if !snapshot {
		return &s.arr
	}
	if st.rank() == 0 {
		s.arr, s.snap = s.snap, s.arr
	}
	// No stepper moves on before the leader holds the whole state, so a
	// fault anywhere from the next step on rolls back to this one.
	st.agree(false)
	return &s.snap
}

// Result reports the session since Open (since the last rollback, if
// any), with the last Advance's state under Config.CollectState: the
// slowest stepper's timing, the leader's phase split, summed counters.
// Pos and Vel are the Result's own, its Arrangement the session's: a
// checkpoint.FromResult after the next Advance refuses it.
func (s *Sim) Result() *Result {
	p0 := &s.parts[0]
	meas := float64(max(p0.steps, 1))
	res := &Result{
		Mode:         s.cfg.Mode,
		Iters:        s.iters,
		Wall:         p0.wall,
		Epot:         p0.epot,
		Ekin:         p0.ekin,
		Rebuilds:     p0.rebuilds - p0.rebuilds0,
		ViewSteps:    p0.viewSteps - p0.views0,
		ForceTime:    p0.forceTime / meas,
		UpdateTime:   p0.updateTime / meas,
		CommTime:     p0.commTime / meas,
		CollTime:     p0.collTime / meas,
		MeanLinkDist: p0.meanDist,
		Tree:         p0.tree,
	}
	a := &s.arr
	if s.snap.Order != nil && s.snap.Iters == s.iters {
		a = &s.snap // gathered as a snapshot, or restored from one
	}
	if s.cfg.CollectState && a.Order != nil && a.Iters == s.iters {
		res.Pos, res.Vel = a.byID(s.cfg.Box())
		res.Arrangement = a
	}
	// Reduced in rank order, like the collectives that used to do it.
	var timed, clock, maxLoad, sumLoad float64
	for i := range s.parts {
		p := &s.parts[i]
		timed = max(timed, p.timed)
		clock = max(clock, p.clock-p.clock0)
		// Compute time only: a waiting rank's comm time is the imbalance.
		load := p.forceTime + p.updateTime
		maxLoad = max(maxLoad, load)
		sumLoad += load
		res.NLinks += int64(p.nlinks)
		res.TC.Add(&p.tc)
	}
	res.PerIter = timed / meas
	res.TotalTime = clock / meas
	res.AtomicFraction = res.TC.AtomicFraction()
	if s.layout != nil {
		res.Imbalance = 1
		if sumLoad > 0 {
			res.Imbalance = maxLoad / (sumLoad / float64(len(s.parts)))
		}
	}
	return res
}

// AdvanceTo runs the session from cumulative iteration done (what the
// checkpoint it was opened from held) to total and, when save is
// non-nil, hands it the Result at every absolute multiple of every
// (0: none), at the end, and where Stop cut the run short — then with
// ErrCanceled. Saving changes nothing about the run: under
// Config.CollectState each is the state a resume continues from bit
// for bit, whatever the cadence.
func (s *Sim) AdvanceTo(done, total, every int, save func(snap *Result, done int) error) (int, error) {
	s.base = done - s.iters
	for done < total {
		n := total - done
		if every > 0 && save != nil {
			n = min(n, every-done%every)
		}
		err := s.Advance(n)
		if err != nil && !errors.Is(err, ErrCanceled) {
			return done, err
		}
		done = s.base + s.iters
		if save != nil {
			if serr := save(s.Result(), done); serr != nil {
				return done, serr
			}
		}
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// Close releases the session's team, or its parked ranks and theirs,
// and waits for them to finish; calling it again does nothing.
func (s *Sim) Close() {
	if s.sh != nil {
		s.sh.close()
	}
	if s.w != nil {
		for _, c := range s.w.cmd {
			close(c)
		}
		<-s.w.exited
	}
	s.sh, s.w = nil, nil
}

// Run executes cfg's warm-up plus iters measured iterations and
// returns the measurements. When Config.Stop cuts the run short the
// partial Result (Iters = completed steps) comes with ErrCanceled.
func Run(cfg Config, iters int) (*Result, error) {
	s, err := Open(cfg)
	return advanceAndClose(s, err, iters)
}

func advanceAndClose(s *Sim, err error, iters int) (*Result, error) {
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err = s.Advance(iters); err != nil && !errors.Is(err, ErrCanceled) {
		return nil, err
	}
	return s.Result(), err
}
