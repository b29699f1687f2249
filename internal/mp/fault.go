package mp

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

// FaultPlan is a seeded, deterministic chaos schedule for one or more
// runs. It can kill a chosen rank at a chosen global step (ArmKill)
// and corrupt, duplicate or delay point-to-point payloads with the
// configured per-message probabilities. Install a plan via
// RunOptions.Faults; a nil plan injects nothing.
//
// Determinism: each rank draws from its own rand stream (Seed+rank)
// and always draws the same number of variates per send, so the
// schedule of candidate faults depends only on Seed and each rank's
// send sequence — not on goroutine interleaving. MaxFaults caps how
// many payload faults (corrupt+duplicate+delay combined) are actually
// applied across the plan's lifetime; the cap is shared state, so
// which candidates land when several ranks race to the cap can vary,
// but every applied fault is detected (never silently accepted), so
// supervised trajectories stay bit-identical regardless.
//
// Streams are deliberately not reset between runs: a supervisor that
// retries after a detected fault re-runs against the plan's remaining
// fault budget, so bounded MaxFaults guarantees the retries eventually
// execute clean.
type FaultPlan struct {
	Seed          int64
	CorruptProb   float64       // per-message probability of a payload bit flip
	DuplicateProb float64       // per-message probability of delivering twice
	DelayProb     float64       // per-message probability of a wall-clock stall
	DelayWall     time.Duration // stall length for delayed sends
	MaxFaults     int           // cap on applied payload faults (0 = unlimited)

	mu        sync.Mutex
	rngs      []*rand.Rand
	applied   int
	killArmed bool
	killFired bool
	killRank  int
	killStep  int
	stats     FaultStats
}

// FaultStats reports how many faults a plan actually applied.
type FaultStats struct {
	Corrupted  int
	Duplicated int
	Delayed    int
	Killed     int
}

// NewFaultPlan returns an empty plan seeded for deterministic draws.
// Configure the probability fields (and ArmKill) before the run.
func NewFaultPlan(seed int64) *FaultPlan { return &FaultPlan{Seed: seed} }

// ArmKill schedules rank to die at the first FaultPoint whose global
// step is >= step. The kill fires exactly once per plan, so a
// supervisor retrying after the failure is not re-killed.
func (fp *FaultPlan) ArmKill(rank, step int) {
	fp.mu.Lock()
	fp.killArmed, fp.killFired = true, false
	fp.killRank, fp.killStep = rank, step
	fp.mu.Unlock()
}

// ParseKill parses the "rank@step" spelling of an ArmKill that demrun's
// -chaos-kill flag and demd's chaosKill job field share.
func ParseKill(s string) (rank, step int, err error) {
	r, st, ok := strings.Cut(s, "@")
	if ok {
		if rank, err = strconv.Atoi(r); err == nil {
			step, err = strconv.Atoi(st)
		}
	}
	if !ok || err != nil || rank < 0 || step < 0 {
		return 0, 0, fmt.Errorf("chaos kill %q: want rank@step with non-negative integers", s)
	}
	return rank, step, nil
}

// Stats returns a snapshot of the applied-fault counts.
func (fp *FaultPlan) Stats() FaultStats {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.stats
}

// shouldKill reports (once) whether rank must die at step.
func (fp *FaultPlan) shouldKill(rank, step int) bool {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if !fp.killArmed || fp.killFired || rank != fp.killRank || step < fp.killStep {
		return false
	}
	fp.killFired = true
	fp.stats.Killed++
	return true
}

// rng returns rank's private stream, growing the table on first use.
// The stream itself is only ever used from rank's goroutine.
func (fp *FaultPlan) rng(rank int) *rand.Rand {
	fp.mu.Lock()
	for len(fp.rngs) <= rank {
		fp.rngs = append(fp.rngs, rand.New(rand.NewSource(fp.Seed+int64(len(fp.rngs)))))
	}
	r := fp.rngs[rank]
	fp.mu.Unlock()
	return r
}

// claim consumes one unit of the shared fault budget, reporting
// whether the candidate fault may be applied.
func (fp *FaultPlan) claim() bool {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if fp.MaxFaults > 0 && fp.applied >= fp.MaxFaults {
		return false
	}
	fp.applied++
	return true
}

// mangle applies the plan to one outgoing packet (whose checksum is
// already set): it may flip a payload bit in place, return a deep copy
// to deliver as a duplicate, and/or return a wall-clock delay to sleep
// before delivery. The three variates are always drawn so the
// candidate schedule is interleaving-independent.
func (fp *FaultPlan) mangle(c *Comm, p *packet) (dup *packet, delay time.Duration) {
	r := fp.rng(c.rank)
	drawC, drawD, drawW := r.Float64(), r.Float64(), r.Float64()
	if drawC < fp.CorruptProb && fp.claim() {
		fp.corrupt(r, p)
		fp.mu.Lock()
		fp.stats.Corrupted++
		fp.mu.Unlock()
	}
	if drawD < fp.DuplicateProb && fp.claim() {
		// The duplicate must own fresh pooled buffers: the original and
		// the copy are freed independently by the receiver, and sharing
		// backing arrays would double-free the pool.
		d := *p
		if len(p.f) > 0 {
			d.f = c.w.getF(len(p.f))
			copy(d.f, p.f)
		}
		if len(p.i) > 0 {
			d.i = c.w.getI(len(p.i))
			copy(d.i, p.i)
		}
		dup = &d
		fp.mu.Lock()
		fp.stats.Duplicated++
		fp.mu.Unlock()
	}
	if drawW < fp.DelayProb && fp.DelayWall > 0 && fp.claim() {
		delay = fp.DelayWall
		fp.mu.Lock()
		fp.stats.Delayed++
		fp.mu.Unlock()
	}
	return dup, delay
}

// corrupt flips one random payload bit (or, for empty payloads, the
// checksum itself) so the receiver's integrity check must fire.
func (fp *FaultPlan) corrupt(r *rand.Rand, p *packet) {
	nf, ni := len(p.f), len(p.i)
	bits := nf*64 + ni*32
	if bits == 0 {
		p.sum ^= 1
		return
	}
	b := r.Intn(bits)
	if b < nf*64 {
		p.f[b/64] = flipFloatBit(p.f[b/64], uint(b%64))
	} else {
		b -= nf * 64
		p.i[b/32] ^= int32(1) << uint(b%32)
	}
}

// flipFloatBit flips one bit of v's IEEE-754 representation.
func flipFloatBit(v float64, bit uint) float64 {
	return math.Float64frombits(math.Float64bits(v) ^ (1 << bit))
}
