package core

import (
	"fmt"
	"sync"
	"time"

	"hybriddem/internal/decomp"
	"hybriddem/internal/fault"
	"hybriddem/internal/geom"
)

// blockSnap is one block's core particles in canonical (post-rebuild)
// store order: positions wrapped into the box, particles in their home
// block, cores cell-ordered, component-major like the store they are
// copied from. Restoring these arrays verbatim and running a rebuild
// reproduces the exact arrangement an uninterrupted run would have,
// which is what makes rollback bit-exact.
type blockSnap struct {
	pos, vel geom.Coords
	ids      []int32
	have     bool // filled in the epoch being assembled
}

// epochState is one complete rebuild-boundary snapshot: the state at
// the start of measured iteration iter, indexed by block id. Keying by
// block (not rank) is what lets a degraded layout restore it — blocks
// keep their identity and geometry when ownership moves.
type epochState struct {
	iter   int
	blocks []blockSnap
	filled int
}

// snapCollector assembles per-block snapshot offers into complete
// epochs. It models the stable storage of a checkpointing system: it
// lives outside the world of rank goroutines, so a snapshot taken
// before a fault survives the fault.
//
// Within one attempt, offers are globally ordered by epoch — a
// rank's offer of epoch X happens before it enters iteration X's
// collectives, which every other rank must complete before finishing
// any later iteration — so a single current buffer suffices: a new
// epoch's first offer retires the previous buffer (complete or not),
// and a buffer is promoted to stable only once all `need` blocks have
// arrived. A fault mid-epoch leaves the stable snapshot untouched.
// The same ordering lets the ranks copy their blocks into the current
// buffer side by side, outside the lock — each block has its own slot,
// and no rank can open the next epoch while another is still copying
// into this one — and lets the buffer that a promotion displaces be
// the next epoch's: whoever restored from it finished doing so before
// it offered anything.
//
// The ordering does NOT hold across attempts: a failed attempt can
// die with a half-filled buffer for the very epoch its retry will
// offer again (the rollback replays the same boundaries bit-exactly,
// and a degraded layout offers them with different blocks-per-rank
// groupings). Supervise therefore calls reset before every retry so
// the two attempts' offers never merge.
type snapCollector struct {
	mu      sync.Mutex
	need    int // blocks per complete epoch (layout.B)
	every   int // take every k-th rebuild boundary (>=1)
	seen    int // rebuild boundaries seen
	curIter int // epoch currently assembling (-1 = none)
	cur     *epochState
	stable  *epochState
	spare   *epochState // a retired buffer, for the next epoch taken
}

func newSnapCollector(need, every int) *snapCollector {
	if every < 1 {
		every = 1
	}
	return &snapCollector{need: need, every: every, curIter: -1}
}

// offer deposits one rank's blocks for the epoch starting at iter.
// The first offer of a new epoch decides (from the shared boundary
// counter) whether this epoch is taken, so every rank's offer of the
// same epoch agrees.
func (sc *snapCollector) offer(iter int, dm *decomp.Domain) {
	if sc == nil {
		return // an unsupervised session keeps no snapshots
	}
	sc.mu.Lock()
	if iter != sc.curIter {
		sc.curIter = iter
		sc.seen++
		sc.retire()
		if (sc.seen-1)%sc.every == 0 {
			if sc.cur = sc.spare; sc.cur == nil {
				sc.cur = &epochState{blocks: make([]blockSnap, sc.need)}
			}
			sc.spare = nil
			sc.cur.iter, sc.cur.filled = iter, 0
			for i := range sc.cur.blocks {
				sc.cur.blocks[i].have = false
			}
		}
	}
	cur := sc.cur
	sc.mu.Unlock()
	if cur == nil {
		// Not taken — or taken and already promoted: a duplicate
		// offer (only possible if the per-attempt ordering were
		// violated) has nothing to add, and dropping it degrades to "no
		// newer snapshot" rather than crashing a rank.
		return
	}
	fresh := 0
	for _, b := range dm.Blocks {
		snap := &cur.blocks[b.ID]
		for k := 0; k < b.PS.D; k++ {
			snap.pos[k] = append(snap.pos[k][:0], b.PS.Pos[k][:b.NCore]...)
			snap.vel[k] = append(snap.vel[k][:0], b.PS.Vel[k][:b.NCore]...)
		}
		snap.ids = append(snap.ids[:0], b.PS.ID[:b.NCore]...)
		if !snap.have {
			snap.have = true
			fresh++
		}
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.cur != cur {
		return // reset meanwhile: the epoch is abandoned
	}
	if cur.filled += fresh; cur.filled == sc.need {
		sc.stable, sc.spare, sc.cur = cur, sc.stable, nil
	}
}

// retire gives up the epoch being assembled, keeping its storage for
// the next one. Called with the lock held.
func (sc *snapCollector) retire() {
	if sc.cur != nil {
		sc.spare, sc.cur = sc.cur, nil
	}
}

// reset abandons any partially assembled epoch and restarts the
// cadence counter, keeping the stable snapshot. Called before each
// recovery attempt: the failed attempt may have left a half-filled
// buffer for an epoch the retry offers again, and merging the two
// would promote on a mixed block count. Restarting the cadence also
// means the first boundary after a rollback is always taken, so a
// fresh snapshot is re-established promptly.
func (sc *snapCollector) reset() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.seen = 0
	sc.curIter = -1
	sc.retire()
}

// snapshot returns the newest complete epoch, or nil.
func (sc *snapCollector) snapshot() *epochState {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.stable
}

// FTConfig tunes Supervise's fault-tolerance policy.
type FTConfig struct {
	// SnapshotEvery takes an in-memory snapshot at every k-th rebuild
	// boundary (1 = every boundary; 0 defaults to 1). Rebuild
	// boundaries are the only states a bit-exact rollback can restart
	// from, so the cadence is counted in boundaries, not iterations.
	SnapshotEvery int
	// MaxRetries bounds recovery attempts (0 defaults to 3). Each
	// detected fault consumes one retry; exceeding the bound returns
	// the last fault as an unrecoverable error.
	MaxRetries int
	// Backoff is the sleep before the first retry, doubling on each
	// subsequent one. 0 disables backoff (tests).
	Backoff time.Duration
	// OnFault, when non-nil, observes every detected fault before the
	// recovery attempt (attempt counts from 1).
	OnFault func(attempt int, fe *fault.Error)
	// OnRetry, when non-nil, observes each recovery attempt as it
	// launches: restart is the measured iteration the rollback resumes
	// from (0 = from scratch), so iters-restart is the replay depth
	// the benchmark experiments report.
	OnRetry func(attempt, restart int)
}

// OpenSupervised opens a distributed session under fault supervision:
// it takes periodic in-memory snapshots at rebuild boundaries, and on a
// detected fault (injected kill, corrupted message, watchdog timeout)
// — during set-up or inside any Advance — rolls the simulation back to
// the last complete snapshot and re-runs it, after a rank kill on a
// degraded layout that redistributes the dead rank's blocks over the
// surviving P-1 ranks. Recovery is bit-exact: the re-executed
// trajectory and every Probe and OnStep delivery are bit-identical to
// an unfaulted session's. Retries
// exhausted (or a single-rank layout losing its only rank) end the
// session with the fault as an unrecoverable error (demrun: exit 3).
// After a recovery, Result describes the world that finished.
func OpenSupervised(cfg Config, ft FTConfig) (*Sim, error) {
	if !cfg.Mode.Distributed() {
		return nil, fmt.Errorf("core: Supervise with mode %s, which has no ranks to lose (distributed modes only)", cfg.Mode)
	}
	return open(cfg, &ft)
}

// Supervise is Run under OpenSupervised.
func Supervise(cfg Config, iters int, ft FTConfig) (*Result, error) {
	if iters < 1 {
		return nil, fmt.Errorf("core: Supervise with %d iterations", iters)
	}
	s, err := OpenSupervised(cfg, ft)
	return advanceAndClose(s, err, iters)
}

// rollback answers the error that killed the world: the session is over
// without an FTConfig or when it is no fault; otherwise one retry is
// spent, a kill degrades the layout, and run restarts after the backoff.
func (s *Sim) rollback(err error) error {
	fe := fault.From(err)
	if s.ft == nil || fe == nil {
		return err
	}
	s.attempt++
	if s.ft.OnFault != nil {
		s.ft.OnFault(s.attempt, fe)
	}
	if s.attempt > s.ft.MaxRetries {
		return fmt.Errorf("core: unrecoverable after %d recovery attempts: %w", s.ft.MaxRetries, fe)
	}
	s.sink.reset()
	if fe.Kind == fault.Killed {
		degraded, derr := s.layout.Degrade(fe.Rank)
		if derr != nil {
			return fmt.Errorf("core: cannot recover from %w: %v", fe, derr)
		}
		s.layout = degraded
	}
	if s.backoff > 0 {
		// The backoff honours cooperative cancellation: demd canceling or
		// shutting down must not wait out a long exponential backoff. The
		// failed attempt rolled back, so there is no partial Result and the
		// return is the pending fault, not ErrCanceled (which promises one).
		deadline := time.Now().Add(s.backoff)
		for time.Now().Before(deadline) {
			if s.cfg.Stop != nil && s.cfg.Stop() {
				return fmt.Errorf("core: run canceled during recovery backoff: %w", fe)
			}
			time.Sleep(min(10*time.Millisecond, time.Until(deadline)))
		}
		s.backoff *= 2
	}
	s.w = nil // down, for run to restart; on the error paths the dead world stays and answers for it
	return nil
}
