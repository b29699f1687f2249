package mp

import (
	"fmt"
	"time"

	"hybriddem/internal/fault"
)

// Op selects the combining operation of an Allreduce.
type Op int

const (
	Sum Op = iota
	Max
	Min
)

// collState is one generation of a rendezvous collective. Generations
// are kept in a map so a fast rank may enter generation g+1 while slow
// ranks are still reading generation g's result. States are recycled
// through world.freeColl once every rank has read the result, so the
// steady-state collective allocates nothing.
type collState struct {
	arrived int
	readers int
	clock   float64     // max participant clock
	per     [][]float64 // per-rank contributions (deterministic order)
	result  []float64   // reused combine buffer
	done    bool
}

// collAt returns (creating or recycling on demand) the state for
// generation g.
func (w *world) collAt(g int) *collState {
	if w.colls == nil {
		w.colls = make(map[int]*collState)
	}
	st, ok := w.colls[g]
	if !ok {
		if k := len(w.freeColl); k > 0 {
			st = w.freeColl[k-1]
			w.freeColl[k-1] = nil
			w.freeColl = w.freeColl[:k-1]
		} else {
			st = &collState{per: make([][]float64, w.size)}
		}
		w.colls[g] = st
	}
	return st
}

// recycleColl resets a fully read state and returns it to the
// freelist. Contribution pointers are dropped so caller buffers are
// not retained; the result buffer is kept for reuse. Must be called
// under collMu.
func (w *world) recycleColl(gen int, st *collState) {
	delete(w.colls, gen)
	st.arrived = 0
	st.readers = 0
	st.clock = 0
	st.done = false
	for i := range st.per {
		st.per[i] = nil
	}
	w.freeColl = append(w.freeColl, st)
}

// combineInto reduces the size deposited slices of st.per element-wise
// with op into st.result (resized to n). Summation runs in rank order
// so the floating-point result is deterministic.
func combineInto(st *collState, op Op, size, n int) {
	if cap(st.result) < n {
		st.result = make([]float64, n)
	}
	st.result = st.result[:n]
	out := st.result
	first := st.per[0]
	if len(first) != n {
		panic(fmt.Sprintf("mp: allreduce length mismatch: rank 0 has %d, combiner has %d", len(first), n))
	}
	copy(out, first)
	for r := 1; r < size; r++ {
		pv := st.per[r]
		if len(pv) != n {
			panic(fmt.Sprintf("mp: allreduce length mismatch: rank 0 has %d, rank %d has %d", n, r, len(pv)))
		}
		switch op {
		case Sum:
			for k := range out {
				out[k] += pv[k]
			}
		case Max: // the builtins carry a NaN from any rank
			for k := range out {
				out[k] = max(out[k], pv[k])
			}
		case Min:
			for k := range out {
				out[k] = min(out[k], pv[k])
			}
		}
	}
}

// collWait blocks (under collMu) until st completes. A panicked peer
// surfaces as a typed Abandoned fault; with a watchdog armed, a wait
// blocked past the deadline surfaces as a typed Timeout fault (the
// run's ticker broadcasts collCond periodically so the deadline is
// actually checked). Callers hold collMu via defer Unlock, so the
// panic releases the lock.
func (c *Comm) collWait(st *collState, op string) {
	w := c.w
	var start time.Time
	for !st.done {
		if w.anyPanic {
			panic(&fault.Error{Kind: fault.Abandoned, Rank: c.rank, Step: c.step, Op: op,
				Detail: op + " abandoned by a panicked rank"})
		}
		if w.wd > 0 {
			if start.IsZero() {
				start = time.Now()
			} else if time.Since(start) > w.wd {
				panic(&fault.Error{Kind: fault.Timeout, Rank: c.rank, Step: c.step, Op: op,
					Detail: fmt.Sprintf("%s not completed within %v", op, w.wd)})
			}
		}
		w.collCond.Wait()
	}
}

// nextColl claims this rank's next collective generation. Every rank
// must enter collectives in the same order (the usual MPI contract),
// so per-rank counters agree on which generation each entry belongs
// to. Counting per rank rather than globally lets a rank post a
// split-phase collective (IAllreduceInPlace) and enter further
// collectives before waiting on it. Must be called under collMu.
func (c *Comm) nextColl() int {
	g := c.collSeq
	c.collSeq++
	return g
}

// rendezvous runs one collective: every rank deposits contrib (may be
// nil), the last arriver combines all contributions in rank order with
// combine (receiving the per-rank slice), and every rank leaves with a
// private copy of the result and a clock equal to the max participant
// clock plus cost(size, resultBytes). The copy is taken inside the
// critical section because the state (and any reused result buffer) is
// recycled as soon as the last rank has read it.
func (c *Comm) rendezvous(contrib []float64, combine func(per [][]float64) []float64, costBytes int) []float64 {
	w := c.w
	w.collMu.Lock()
	defer w.collMu.Unlock()

	gen := c.nextColl()
	st := w.collAt(gen)
	st.per[c.rank] = contrib
	if c.clock > st.clock {
		st.clock = c.clock
	}
	st.arrived++
	if st.arrived == w.size {
		st.result = combine(st.per)
		st.done = true
		w.collCond.Broadcast()
	} else {
		c.collWait(st, "collective")
	}
	res := append([]float64(nil), st.result...)
	c.clock = st.clock + w.net.CollectiveCost(w.size, costBytes)
	st.readers++
	if st.readers == w.size {
		w.recycleColl(gen, st)
	}
	c.TC.Collectives++
	return res
}

// Barrier blocks until every rank has entered, then releases all with
// equalised clocks plus the network's barrier cost.
func (c *Comm) Barrier() {
	w := c.w
	w.collMu.Lock()
	defer w.collMu.Unlock()
	gen := c.nextColl()
	st := w.collAt(gen)
	if c.clock > st.clock {
		st.clock = c.clock
	}
	st.arrived++
	if st.arrived == w.size {
		st.done = true
		w.collCond.Broadcast()
	} else {
		c.collWait(st, "barrier")
	}
	c.clock = st.clock + w.net.BarrierCost(w.size)
	st.readers++
	if st.readers == w.size {
		w.recycleColl(gen, st)
	}
	c.TC.Barriers++
}

// AllreduceInPlace combines each rank's vector element-wise with op,
// leaving the identical result in v on every rank. Summation runs in
// rank order so the floating-point result is deterministic. This is
// the allocation-free form used on the step path; every rank must pass
// the same length.
func (c *Comm) AllreduceInPlace(v []float64, op Op) {
	w := c.w
	w.collMu.Lock()
	defer w.collMu.Unlock()

	gen := c.nextColl()
	st := w.collAt(gen)
	st.per[c.rank] = v
	if c.clock > st.clock {
		st.clock = c.clock
	}
	st.arrived++
	if st.arrived == w.size {
		combineInto(st, op, w.size, len(v))
		st.done = true
		w.collCond.Broadcast()
	} else {
		c.collWait(st, "collective")
	}
	if len(st.result) != len(v) {
		panic(fmt.Sprintf("mp: allreduce length mismatch: combined %d, rank %d has %d", len(st.result), c.rank, len(v)))
	}
	copy(v, st.result)
	c.clock = st.clock + w.net.CollectiveCost(w.size, 8*len(v))
	st.readers++
	if st.readers == w.size {
		w.recycleColl(gen, st)
	}
	c.TC.Collectives++
}

// Allreduce combines each rank's vector element-wise with op and
// returns the identical result on every rank as a fresh slice.
func (c *Comm) Allreduce(v []float64, op Op) []float64 {
	out := append([]float64(nil), v...)
	c.AllreduceInPlace(out, op)
	return out
}

// AllreduceScalar is Allreduce for a single value; it reuses a
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
	c     *Comm
	st    *collState
	gen   int
	v     []float64
	bytes int
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
	w.collMu.Lock()
	gen := c.nextColl()
	st := w.collAt(gen)
	st.per[c.rank] = v
	if c.clock > st.clock {
		st.clock = c.clock
	}
	st.arrived++
	if st.arrived == w.size {
		combineInto(st, op, w.size, len(v))
		st.done = true
		w.collCond.Broadcast()
	}
	w.collMu.Unlock()
	r := w.getCollReq()
	r.c, r.st, r.gen, r.v, r.bytes = c, st, gen, v, 8*len(v)
	return r
}

// Wait blocks until the posted collective completes, copies the
// combined result into the posted vector and recycles the request. A
// CollRequest is single-use: the handle returns to the world's pool
// inside Wait, so the caller must drop it immediately after.
func (r *CollRequest) Wait() {
	c, st, gen, v := r.c, r.st, r.gen, r.v
	w := c.w
	func() {
		w.collMu.Lock()
		defer w.collMu.Unlock()
		c.collWait(st, "collective")
		if len(st.result) != len(v) {
			panic(fmt.Sprintf("mp: allreduce length mismatch: combined %d, rank %d has %d", len(st.result), c.rank, len(v)))
		}
		copy(v, st.result)
		if t := st.clock + w.net.CollectiveCost(w.size, r.bytes); t > c.clock {
			c.clock = t
		}
		st.readers++
		if st.readers == w.size {
			w.recycleColl(gen, st)
		}
	}()
	c.TC.Collectives++
	*r = CollRequest{}
	w.poolMu.Lock()
	w.freeCollReq = append(w.freeCollReq, r)
	w.poolMu.Unlock()
}

// Allgather concatenates every rank's contribution in rank order and
// returns the identical result on every rank as a fresh slice.
// Contributions may differ in length. The cost model charges one
// collective sized as if every rank contributed this rank's share
// (the cost argument must be known before the last rank arrives, when
// only the local length is).
func (c *Comm) Allgather(v []float64) []float64 {
	contrib := append([]float64(nil), v...)
	return c.rendezvous(contrib, func(per [][]float64) []float64 {
		n := 0
		for _, p := range per {
			n += len(p)
		}
		out := make([]float64, 0, n)
		for _, p := range per {
			out = append(out, p...)
		}
		return out
	}, 8*len(v)*c.w.size)
}

// Bcast distributes root's vector to every rank.
func (c *Comm) Bcast(root int, v []float64) []float64 {
	var contrib []float64
	if c.rank == root {
		contrib = append([]float64(nil), v...)
	}
	return c.rendezvous(contrib, func(per [][]float64) []float64 {
		return per[root]
	}, 8*len(v))
}
