package mp

import (
	"fmt"
	"time"

	"hybriddem/internal/fault"
)

// Op selects the combining operation of an allreduce.
type Op int

const (
	Sum Op = iota
	Max
	Min
)

// rendezvous is the one synchronisation protocol behind Barrier,
// AllreduceInPlace, IAllreduceInPlace/Wait and Win.Fence. A member
// claims its next generation, deposits its vector (nil for a barrier or
// a fence) and raises the generation's clock to its own; the last
// arriver combines the deposits in member order and wakes the rest;
// each member leaves at max(own clock, generation clock + cost), and
// the last to leave recycles the generation with its result buffer, so
// the steady state allocates nothing.
//
// Generations are keyed, so a fast member may enter g+1 while slow
// ones still read g, and each member counts its own, so a rank may post
// a split-phase allreduce and enter further collectives before waiting
// on it. Every member must enter the same sequence (the usual MPI
// contract). The world holds one rendezvous over all ranks for the
// collectives and every shared window one over its node group for the
// fences. All are guarded by world.collMu and wait on world.collCond,
// so the watchdog ticker and the any-panic abort reach every waiter.
type rendezvous struct {
	size int                 // members
	seq  []int               // each member's next generation
	live map[int]*generation // generations some member has yet to leave
	free []*generation
}

// generation is one round of a rendezvous.
type generation struct {
	arrived, readers int
	clock            float64     // max member clock at arrival
	per              [][]float64 // per-member deposits
	result           []float64   // reused combine buffer
	done             bool
}

func newRendezvous(size int) *rendezvous {
	return &rendezvous{size: size, seq: make([]int, size), live: make(map[int]*generation)}
}

// arrive claims member's next generation of rv, deposits v and raises
// the generation's clock to c's; the last arriver combines the deposits
// with op and wakes the waiters. Must be called under collMu.
func (c *Comm) arrive(rv *rendezvous, member int, v []float64, op Op) (int, *generation) {
	gen := rv.seq[member]
	rv.seq[member]++
	st, ok := rv.live[gen]
	if !ok {
		if k := len(rv.free) - 1; k >= 0 {
			st, rv.free = rv.free[k], rv.free[:k]
		} else {
			st = &generation{per: make([][]float64, rv.size)}
		}
		rv.live[gen] = st
	}
	st.per[member] = v
	if c.clock > st.clock {
		st.clock = c.clock
	}
	st.arrived++
	if st.arrived == rv.size {
		st.combine(op, len(v))
		st.done = true
		c.w.collCond.Broadcast()
	}
	return gen, st
}

// combine reduces the deposits element-wise with op into st.result,
// resized to n. Summation runs in member order so the floating-point
// result is deterministic; the builtin max and min carry a NaN from any
// member. Barriers and fences deposit nothing and combine nothing.
func (st *generation) combine(op Op, n int) {
	if cap(st.result) < n {
		st.result = make([]float64, n)
	}
	out := st.result[:n]
	st.result = out
	for r, pv := range st.per {
		if len(pv) != n {
			panic(fmt.Sprintf("mp: allreduce length mismatch: rank %d has %d, the last to arrive has %d", r, len(pv), n))
		}
		switch {
		case r == 0:
			copy(out, pv)
		case op == Sum:
			for k := range out {
				out[k] += pv[k]
			}
		case op == Max:
			for k := range out {
				out[k] = max(out[k], pv[k])
			}
		case op == Min:
			for k := range out {
				out[k] = min(out[k], pv[k])
			}
		}
	}
}

// leave waits for generation gen of rv to complete, copies the combined
// result into v and advances c's clock to the generation's clock plus
// cost unless compute since arrival already took it further; the last
// member to leave recycles the generation, dropping the deposits so
// caller buffers are not retained. Must be called under collMu.
func (c *Comm) leave(rv *rendezvous, gen int, st *generation, v []float64, cost float64, label string) {
	c.await(st, label)
	if len(st.result) != len(v) {
		panic(fmt.Sprintf("mp: allreduce length mismatch: combined %d, rank %d has %d", len(st.result), c.rank, len(v)))
	}
	copy(v, st.result)
	if t := st.clock + cost; t > c.clock {
		c.clock = t
	}
	st.readers++
	if st.readers == rv.size {
		delete(rv.live, gen)
		st.arrived, st.readers, st.clock, st.done = 0, 0, 0, false
		clear(st.per)
		rv.free = append(rv.free, st)
	}
}

// await blocks (under collMu) until st completes. A panicked peer
// surfaces as a typed Abandoned fault; with a watchdog armed, a wait
// blocked past the deadline surfaces as a typed Timeout fault (the
// run's ticker broadcasts collCond periodically so the deadline is
// actually checked). Both name label as the operation and the rank's
// last FaultPoint step. Callers hold collMu via defer Unlock, so the
// panic releases the lock.
func (c *Comm) await(st *generation, label string) {
	w := c.w
	var start time.Time
	for !st.done {
		if w.anyPanic {
			panic(&fault.Error{Kind: fault.Abandoned, Rank: c.rank, Step: c.step, Op: label,
				Detail: label + " abandoned by a panicked rank"})
		}
		if w.wd > 0 {
			if start.IsZero() {
				start = time.Now()
			} else if time.Since(start) > w.wd {
				panic(&fault.Error{Kind: fault.Timeout, Rank: c.rank, Step: c.step, Op: label,
					Detail: fmt.Sprintf("%s not completed within %v", label, w.wd)})
			}
		}
		w.collCond.Wait()
	}
}

// meet is the blocking form: arrive and leave under one hold of
// collMu. The member's clock cannot move between the two, so it leaves
// at exactly the generation's clock plus cost.
func (c *Comm) meet(rv *rendezvous, member int, v []float64, op Op, cost float64, label string) {
	w := c.w
	w.collMu.Lock()
	defer w.collMu.Unlock()
	gen, st := c.arrive(rv, member, v, op)
	c.leave(rv, gen, st, v, cost, label)
}

// Barrier blocks until every rank has entered, then releases all with
// equalised clocks plus the network's barrier cost.
func (c *Comm) Barrier() {
	c.meet(c.w.coll, c.rank, nil, Sum, c.w.net.BarrierCost(c.size), "barrier")
	c.TC.Barriers++
}

// AllreduceInPlace combines each rank's vector element-wise with op,
// leaving the identical result in v on every rank. Summation runs in
// rank order so the floating-point result is deterministic. It
// allocates nothing; every rank must pass the same length.
func (c *Comm) AllreduceInPlace(v []float64, op Op) {
	c.meet(c.w.coll, c.rank, v, op, c.w.net.CollectiveCost(c.size, 8*len(v)), "collective")
	c.TC.Collectives++
}

// AllreduceScalar is AllreduceInPlace for a single value; it reuses a
// Comm-owned one-element scratch so the per-step validity vote costs
// no allocation.
func (c *Comm) AllreduceScalar(x float64, op Op) float64 {
	c.scalar[0] = x
	c.AllreduceInPlace(c.scalar[:], op)
	return c.scalar[0]
}

// CollRequest is a handle on a split-phase (nonblocking) collective.
// Complete it with Wait; the handle is recycled by Wait and must not
// be touched afterwards.
type CollRequest struct {
	c   *Comm
	st  *generation
	gen int
	v   []float64
}

// IAllreduceInPlace posts the allocation-free allreduce without
// blocking: the rank's contribution (and its clock at posting time)
// are deposited immediately, and the combine happens whenever the last
// rank posts. The caller must not touch v until Wait returns, and
// every rank must enter its collectives — posted or blocking — in the
// same order. Compute performed between the post and the Wait runs
// "during" the collective on the virtual timeline: Wait advances the
// clock to max(own clock, completion time) rather than adding the
// collective cost on top, which is how the drivers overlap the
// end-of-step energy reduction with the rebuild vote.
func (c *Comm) IAllreduceInPlace(v []float64, op Op) *CollRequest {
	w := c.w
	r := w.getCollReq()
	r.c, r.v = c, v
	w.collMu.Lock()
	defer w.collMu.Unlock()
	r.gen, r.st = c.arrive(w.coll, c.rank, v, op)
	return r
}

// Wait blocks until the posted collective completes, copies the
// combined result into the posted vector and recycles the request. A
// CollRequest is single-use: the handle returns to the world's pool
// inside Wait, so the caller must drop it immediately after.
func (r *CollRequest) Wait() {
	c := r.c
	w := c.w
	func() {
		w.collMu.Lock()
		defer w.collMu.Unlock()
		c.leave(w.coll, r.gen, r.st, r.v, w.net.CollectiveCost(w.size, 8*len(r.v)), "collective")
	}()
	c.TC.Collectives++
	*r = CollRequest{}
	w.poolMu.Lock()
	w.freeCollReq = append(w.freeCollReq, r)
	w.poolMu.Unlock()
}
