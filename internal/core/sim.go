package core

import (
	"errors"
	"sort"
	"time"

	"hybriddem/internal/decomp"
	"hybriddem/internal/geom"
	"hybriddem/internal/trace"
)

// stepper is what the one measured loop drives: the sharedSim of the
// Serial and OpenMP modes, or a rank's rankSim in the distributed ones.
// What they do differently at a step boundary is behind it.
type stepper interface {
	step() float64 // one iteration; the modelled seconds of its timed window
	stats() *tally
	rank() int                           // 0 leads: it fires the hooks and polls Stop
	agree(stop bool) bool                // the leader's verdict, known to every stepper
	faultPoint(step int)                 // chaos injection site, before each step
	offer(sink *snapCollector, iter int) // rollback snapshot of a just-rebuilt state
	gather() (pos, vel []geom.Vec)       // collective; the leader receives the state by particle ID
	canonicalise()                       // particle-ID order, then the ordinary rebuild
	report() part
}

// tally is a stepper's accounting: what step and rebuild maintain, and
// the measured window's accumulators, which belong to Sim.loop.
type tally struct {
	rebuilds   int
	meanDist   float64
	epot, ekin float64
	iter       int

	forceTime, updateTime, commTime, collTime float64

	steps     int           // measured steps taken
	timed     float64       // modelled seconds of their timed windows
	wall      time.Duration // host time of the measured loops
	rebuilds0 int           // rebuilds before the measured window
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

	iters  int   // measured iterations the live engine has completed
	hooked int   // ... that Probe and OnStep have been told of (ahead of iters after a rollback)
	base   int   // cumulative iterations before this session's first (AdvanceTo)
	canon  []int // iterations before which the stores return to canonical order: one per Snapshot

	stopReq bool // Stop has asked; latched for the session, leader-only while a loop runs
	grace   int  // steps left before the request is honoured without a rebuild

	pos, vel []geom.Vec // state gathered by the last Advance under CollectState

	// Supervision (supervisor.go); ft is nil for a session a fault ends.
	ft      *FTConfig
	layout  *decomp.Layout // nil in the shared modes
	sink    *snapCollector
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
		sh, err := newSharedSim(cfg)
		if err != nil {
			return nil, err
		}
		for i := 0; i < cfg.Warmup; i++ {
			sh.step()
		}
		sh.forceTime, sh.updateTime = 0, 0 // the measured window opens here
		sh.rebuilds0, sh.clock0 = sh.rebuilds, sh.nowClock()
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
			s.ft, s.backoff, s.sink = ft, ft.Backoff, newSnapCollector(l.B, ft.SnapshotEvery)
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
	s.pos, s.vel = nil, nil
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
	i := s.iters
	for k := sort.SearchInts(s.canon, i); i < to && !stopped; i++ {
		if k < len(s.canon) && s.canon[k] == i {
			st.canonicalise()
			k++
		}
		// Absolute step numbers: a chaos schedule means the same step
		// however the run is cut into sessions, chunks and retries.
		st.faultPoint(cfg.Warmup + s.base + i)
		rb := t.rebuilds
		t.timed += st.step()
		t.steps++
		rebuilt := t.rebuilds > rb
		// Each iteration reaches the hooks once: a rollback replays some,
		// and redelivering them would corrupt captures and event streams.
		fresh := lead && i >= s.hooked
		if cfg.Probe != nil {
			if pos, vel := st.gather(); fresh {
				cfg.Probe(i, pos, vel)
			}
		}
		if fresh {
			if cfg.OnStep != nil {
				cfg.OnStep(i, t.epot, t.ekin)
			}
			s.hooked = i + 1
		}
		if rebuilt {
			// A just-rebuilt state is the only kind a bit-exact rollback
			// can restart from: offer it as the start of iteration i+1.
			st.offer(s.sink, i+1)
		}
		if cfg.Stop != nil {
			// The leader polls the hook, latches the request and honours
			// it at the next rebuild boundary, or when the grace runs out.
			stop := false
			if lead {
				if !s.stopReq && cfg.Stop() {
					s.stopReq, s.grace = true, stopGrace
				}
				if s.stopReq {
					stop = rebuilt || s.grace <= 0
					s.grace--
				}
			}
			stopped = st.agree(stop)
		}
	}
	t.wall += time.Since(start)
	p := st.report()
	p.iters, p.stopped = i, stopped
	s.parts[st.rank()] = p
	if cfg.CollectState { // after the report: the gather is not part of the run it describes
		if pos, vel := st.gather(); lead {
			s.pos, s.vel = pos, vel
		}
	}
}

// Result reports the session since Open (since the last rollback, if
// any), with the last Advance's state under Config.CollectState: the
// slowest stepper's timing, the leader's phase split, summed counters.
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
		ForceTime:    p0.forceTime / meas,
		UpdateTime:   p0.updateTime / meas,
		CommTime:     p0.commTime / meas,
		CollTime:     p0.collTime / meas,
		MeanLinkDist: p0.meanDist,
		Tree:         p0.tree,
		Pos:          s.pos,
		Vel:          s.vel,
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

// Snapshot is Result — after an Advance under Config.CollectState, what
// checkpoint.FromResult takes — plus a promise: the session continues
// as a run resumed from that checkpoint would. Before its next step the
// stores return to particle-ID order and are rebuilt, O(N), in place.
func (s *Sim) Snapshot() *Result {
	if n := len(s.canon); n == 0 || s.canon[n-1] != s.iters {
		s.canon = append(s.canon, s.iters)
	}
	return s.Result()
}

// AdvanceTo runs the session from cumulative iteration done (what the
// checkpoint it was opened from held) to total and, when save is
// non-nil, hands it a Snapshot at every absolute multiple of every
// (0: none) and at the end: a resumed run's short first chunk puts it
// back on the grid an unbroken run visits. It returns the count
// reached, with ErrCanceled when Stop cut the run short — at a rebuild
// boundary, or at the first grid boundary after it latched; both saved.
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
			if serr := save(s.Snapshot(), done); serr != nil {
				return done, serr
			}
		}
		if err != nil || s.stopReq && done < total {
			return done, ErrCanceled
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
