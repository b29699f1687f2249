package mp

import (
	"fmt"
	"math"
	"sync"
	"time"

	"hybriddem/internal/fault"
	"hybriddem/internal/trace"
)

// packet is one in-flight point-to-point message. Payloads carry the
// two element types the DEM code exchanges: float64 (positions,
// velocities, energies) and int32 (identities, counts, templates).
// seq and sum are the integrity envelope: the sender's per-(dst, tag)
// sequence number and an FNV-1a checksum over seq and both payloads,
// set on every send unless RunOptions.NoIntegrity disabled them.
type packet struct {
	src, tag int
	f        []float64
	i        []int32
	sentAt   float64 // sender's virtual clock at send time
	cost     float64 // modelled transfer cost, fixed at send time
	seq      uint64  // per-(src→dst, tag) sequence number
	sum      uint64  // checksum over (seq, f, i); 0 when integrity is off
}

// mailbox is a rank's unordered pending-message store with MPI-style
// (source, tag) matching. Messages that arrived before their Recv are
// buffered (eager protocol); Recv blocks until a match exists.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []packet
	aborted bool
	rank    int           // owning rank, for typed fault errors
	wd      time.Duration // watchdog deadline on blocked takes (0 = none)
}

func newMailbox(rank int) *mailbox {
	m := &mailbox{rank: rank}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(p packet) {
	m.mu.Lock()
	m.pending = append(m.pending, p)
	m.mu.Unlock()
	m.cond.Broadcast()
}

// take removes and returns the first pending packet matching src and
// tag, blocking until one arrives. Matching in arrival order between
// identical (src, tag) pairs preserves MPI's non-overtaking rule
// because puts from one sender are ordered by the channel of calls.
// With a watchdog armed, a take blocked past the deadline panics with
// a typed Timeout fault (the run's ticker wakes it periodically); a
// peer's death panics with Abandoned.
func (m *mailbox) take(src, tag int) packet {
	m.mu.Lock()
	defer m.mu.Unlock()
	var start time.Time
	for {
		for k, p := range m.pending {
			if p.src == src && p.tag == tag {
				m.pending = append(m.pending[:k], m.pending[k+1:]...)
				return p
			}
		}
		if m.aborted {
			panic(&fault.Error{Kind: fault.Abandoned, Rank: m.rank, Step: -1, Op: "recv",
				Detail: "receive abandoned by a panicked rank"})
		}
		if m.wd > 0 {
			if start.IsZero() {
				start = time.Now()
			} else if time.Since(start) > m.wd {
				panic(&fault.Error{Kind: fault.Timeout, Rank: m.rank, Step: -1, Op: "recv",
					Detail: fmt.Sprintf("no message from rank %d tag %d within %v", src, tag, m.wd)})
			}
		}
		m.cond.Wait()
	}
}

// abort wakes any blocked receiver after a sibling rank dies.
func (m *mailbox) abort() {
	m.mu.Lock()
	m.aborted = true
	m.mu.Unlock()
	m.cond.Broadcast()
}

// world is the shared state of one Run: mailboxes, the network model
// and the collective-synchronisation scratch.
type world struct {
	size      int
	net       Network
	boxes     []*mailbox
	faults    *FaultPlan    // nil = no injection
	integrity bool          // sequence numbers + checksums on p2p traffic
	wd        time.Duration // watchdog deadline (0 = none)

	collMu   sync.Mutex
	collCond *sync.Cond
	colls    map[int]*collState
	freeColl []*collState // recycled collective states
	anyPanic bool

	unwound     chan struct{} // closed when the first rank unwinds (Comm.Unwound)
	unwoundOnce sync.Once

	// Message-buffer freelist. Send copies payloads into buffers drawn
	// from here; receivers hand them back with Comm.FreeBuffers. The
	// pool's buffer count is bounded by the in-flight high-water mark,
	// and capacities ratchet up to the largest message seen, so the
	// steady-state exchange allocates nothing. Request handles are
	// pooled the same way (ISend/IRecv draw, Release / CollRequest.Wait
	// return), so the split-phase exchange allocates nothing either.
	poolMu      sync.Mutex
	poolF       [][]float64
	poolI       [][]int32
	freeReq     []*Request
	freeCollReq []*CollRequest

	// Shared-memory window registry (mpism mode): node groups attach to
	// their windows by (leader rank, creation ordinal). Fence states
	// live inside each winShared under collMu.
	winMu sync.Mutex
	wins  map[winKey]*winShared
}

// getReq draws a point-to-point request handle from the pool.
func (w *world) getReq() *Request {
	w.poolMu.Lock()
	if k := len(w.freeReq); k > 0 {
		r := w.freeReq[k-1]
		w.freeReq[k-1] = nil
		w.freeReq = w.freeReq[:k-1]
		w.poolMu.Unlock()
		return r
	}
	w.poolMu.Unlock()
	return new(Request)
}

// getCollReq draws a collective request handle from the pool.
func (w *world) getCollReq() *CollRequest {
	w.poolMu.Lock()
	if k := len(w.freeCollReq); k > 0 {
		r := w.freeCollReq[k-1]
		w.freeCollReq[k-1] = nil
		w.freeCollReq = w.freeCollReq[:k-1]
		w.poolMu.Unlock()
		return r
	}
	w.poolMu.Unlock()
	return new(CollRequest)
}

// getF draws a float64 buffer of length n from the pool (any pooled
// buffer with sufficient capacity), allocating with headroom on miss.
func (w *world) getF(n int) []float64 {
	w.poolMu.Lock()
	for k := len(w.poolF) - 1; k >= 0; k-- {
		if cap(w.poolF[k]) >= n {
			b := w.poolF[k]
			last := len(w.poolF) - 1
			w.poolF[k] = w.poolF[last]
			w.poolF[last] = nil
			w.poolF = w.poolF[:last]
			w.poolMu.Unlock()
			return b[:n]
		}
	}
	w.poolMu.Unlock()
	return make([]float64, n, n+n/4+8)
}

// getI is getF for int32 buffers.
func (w *world) getI(n int) []int32 {
	w.poolMu.Lock()
	for k := len(w.poolI) - 1; k >= 0; k-- {
		if cap(w.poolI[k]) >= n {
			b := w.poolI[k]
			last := len(w.poolI) - 1
			w.poolI[k] = w.poolI[last]
			w.poolI[last] = nil
			w.poolI = w.poolI[:last]
			w.poolMu.Unlock()
			return b[:n]
		}
	}
	w.poolMu.Unlock()
	return make([]int32, n, n+n/4+8)
}

// free returns message buffers to the pool. nil slices are ignored.
func (w *world) free(f []float64, ints []int32) {
	if cap(f) == 0 && cap(ints) == 0 {
		return
	}
	w.poolMu.Lock()
	if cap(f) > 0 {
		w.poolF = append(w.poolF, f)
	}
	if cap(ints) > 0 {
		w.poolI = append(w.poolI, ints)
	}
	w.poolMu.Unlock()
}

// Comm is one rank's handle on the world: its identity, counters and
// virtual clock. A Comm is confined to the goroutine Run created it
// for.
type Comm struct {
	rank, size int
	w          *world
	clock      float64
	collSeq    int        // this rank's next collective generation
	byteScale  float64    // multiplier on modelled payload sizes (1 = off)
	scalar     [1]float64 // AllreduceScalar scratch
	step       int        // last FaultPoint step, for fault annotation
	// Per-(peer, tag) sequence counters for the integrity envelope.
	// Keys are inserted the first time a (peer, tag) pair is used (halo
	// template build / first exchange); steady-state sends and receives
	// only update existing keys, which allocates nothing.
	sendSeq map[uint64]uint64
	recvSeq map[uint64]uint64
	TC      trace.Counters
}

// seqKey packs a peer rank and a tag into one sequence-map key.
func seqKey(peer, tag int) uint64 {
	return uint64(uint32(peer))<<32 | uint64(uint32(tag))
}

// FNV-1a constants for the word-wise payload checksum.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix64 folds one 64-bit word into an FNV-1a style state. The xor is
// injective in x and the multiplier is odd (invertible mod 2^64), so
// any single-bit flip in any word changes the digest.
func mix64(h, x uint64) uint64 { return (h ^ x) * fnvPrime }

// checksum digests a packet's sequence number, payload lengths and
// payload words. It allocates nothing.
func checksum(seq uint64, f []float64, ints []int32) uint64 {
	h := mix64(fnvOffset, seq)
	h = mix64(h, uint64(len(f)))
	h = mix64(h, uint64(len(ints)))
	for _, v := range f {
		h = mix64(h, math.Float64bits(v))
	}
	for _, v := range ints {
		h = mix64(h, uint64(uint32(v)))
	}
	return h
}

// FaultPoint marks a global-step boundary: the drivers call it once
// per step so an armed FaultPlan can kill this rank at the scheduled
// step (a typed Killed panic unwinds the rank mid-protocol, exactly
// like a node loss). It also records the step for fault annotation.
// Without a plan it only records the step.
func (c *Comm) FaultPoint(step int) {
	c.step = step
	if fp := c.w.faults; fp != nil && fp.shouldKill(c.rank, step) {
		panic(&fault.Error{Kind: fault.Killed, Rank: c.rank, Step: step, Op: "faultpoint",
			Detail: "injected rank failure"})
	}
}

// SetByteScale makes the cost model treat every payload as scale
// times its actual size. Drivers running a scaled-down system use it
// to model the full-size system's (surface-proportional) exchange
// traffic; counters always record actual bytes.
func (c *Comm) SetByteScale(scale float64) {
	if scale <= 0 {
		scale = 1
	}
	c.byteScale = scale
}

// modelBytes returns the payload size the cost model sees.
func (c *Comm) modelBytes(bytes int) int {
	if c.byteScale == 0 || c.byteScale == 1 {
		return bytes
	}
	return int(float64(bytes) * c.byteScale)
}

// RunOptions configures a RunOpts execution.
type RunOptions struct {
	// Net is the virtual network cost model (nil = ZeroNetwork).
	Net Network
	// Faults is an optional chaos schedule; nil injects nothing.
	Faults *FaultPlan
	// Watchdog bounds every blocking receive, collective wait and
	// mailbox take: an operation blocked longer surfaces as a typed
	// Timeout fault instead of a hang. 0 disables the watchdog — and
	// makes an injected kill immediately abort its peers (the legacy
	// fail-fast behaviour); with a watchdog armed a killed rank dies
	// silently, as a lost node would, and its peers discover the death
	// only through their deadlines.
	Watchdog time.Duration
	// NoIntegrity disables per-message sequence numbers and checksums.
	// It cannot be combined with corruption or duplication injection
	// (the faults would be silently accepted).
	NoIntegrity bool
}

// RunOpts executes fn concurrently on p ranks and returns each rank's
// final Comm after all ranks complete. A detected fault (injected
// kill, corrupted or out-of-order message, watchdog timeout, abandoned
// peer) is returned as a *fault.Error classifying the root cause; a
// non-fault panic in fn propagates as a panic, as with Run.
func RunOpts(p int, opt RunOptions, fn func(c *Comm)) ([]*Comm, error) {
	if p < 1 {
		panic(fmt.Sprintf("mp: nonpositive rank count %d", p))
	}
	net := opt.Net
	if net == nil {
		net = ZeroNetwork{}
	}
	if opt.NoIntegrity && opt.Faults != nil && (opt.Faults.CorruptProb > 0 || opt.Faults.DuplicateProb > 0) {
		panic("mp: NoIntegrity would silently accept the armed corruption/duplication faults")
	}
	w := &world{
		size:      p,
		net:       net,
		boxes:     make([]*mailbox, p),
		faults:    opt.Faults,
		integrity: !opt.NoIntegrity,
		wd:        opt.Watchdog,
		unwound:   make(chan struct{}),
	}
	w.collCond = sync.NewCond(&w.collMu)
	for i := range w.boxes {
		w.boxes[i] = newMailbox(i)
		w.boxes[i].wd = opt.Watchdog
	}

	// The watchdog ticker periodically wakes every blocked waiter so
	// deadline checks run even when no peer will ever signal again.
	var wdStop chan struct{}
	if opt.Watchdog > 0 {
		wdStop = make(chan struct{})
		period := opt.Watchdog / 4
		if period < time.Millisecond {
			period = time.Millisecond
		}
		go func() {
			t := time.NewTicker(period)
			defer t.Stop()
			for {
				select {
				case <-wdStop:
					return
				case <-t.C:
					w.collMu.Lock()
					w.collCond.Broadcast()
					w.collMu.Unlock()
					for _, b := range w.boxes {
						b.cond.Broadcast()
					}
				}
			}
		}()
	}

	comms := make([]*Comm, p)
	panics := make([]any, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		comms[r] = &Comm{rank: r, size: p, w: w, step: -1}
		if w.integrity {
			comms[r].sendSeq = make(map[uint64]uint64)
			comms[r].recvSeq = make(map[uint64]uint64)
		}
		wg.Add(1)
		go func(c *Comm, r int) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					panics[r] = e
					w.unwoundOnce.Do(func() { close(w.unwound) })
					// An injected kill under an armed watchdog dies
					// silently — peers must discover the loss through
					// their own deadlines, as with a real node failure.
					// Every other panic fails fast: wake any rank
					// blocked in a collective or a receive so the run
					// does not deadlock on a dead peer.
					if fe := fault.From(e); fe != nil && fe.Kind == fault.Killed && w.wd > 0 {
						return
					}
					w.collMu.Lock()
					w.anyPanic = true
					w.collCond.Broadcast()
					w.collMu.Unlock()
					for _, b := range w.boxes {
						b.abort()
					}
				}
			}()
			fn(c)
		}(comms[r], r)
	}
	wg.Wait()
	if wdStop != nil {
		close(wdStop)
	}

	// Classify the outcome. The root cause outranks its casualties:
	// Killed > Corrupt > Sequence > non-fault panic > Timeout >
	// Abandoned, lowest rank breaking ties. A non-fault panic is a
	// program bug, not a fault — it propagates as a panic exactly as
	// Run always has.
	var best *fault.Error
	bestScore := -1
	var bug any
	bugRank := -1
	for r, e := range panics {
		if e == nil {
			continue
		}
		fe := fault.From(e)
		if fe == nil {
			if bug == nil {
				bug, bugRank = e, r
			}
			continue
		}
		var s int
		switch fe.Kind {
		case fault.Killed:
			s = 5
		case fault.Corrupt:
			s = 4
		case fault.Sequence:
			s = 3
		case fault.Timeout:
			s = 1
		case fault.Abandoned:
			s = 0
		}
		if s > bestScore {
			best, bestScore = fe, s
		}
	}
	if best != nil && bestScore >= 3 {
		return comms, best
	}
	if bug != nil {
		panic(fmt.Sprintf("mp: rank %d panicked: %v", bugRank, bug))
	}
	if best != nil {
		return comms, best
	}
	return comms, nil
}

// Run executes fn concurrently on p ranks over the given network and
// returns each rank's final Comm (for clocks and counters) after all
// ranks complete. Panics on any rank propagate. Message integrity
// (sequence numbers + checksums) is always on; use RunOpts to disable
// it, inject faults or arm a watchdog.
func Run(p int, net Network, fn func(c *Comm)) []*Comm {
	comms, err := RunOpts(p, RunOptions{Net: net}, fn)
	if err != nil {
		// Without a FaultPlan or watchdog a typed fault can only mean a
		// genuinely corrupted or misordered message — a runtime bug —
		// so the legacy API escalates it to the legacy panic.
		fe := fault.From(err)
		panic(fmt.Sprintf("mp: rank %d panicked: %v", fe.Rank, err))
	}
	return comms
}

// Unwound is closed once any rank of the world has panicked — fault or
// bug, silent kill included. Blocking mp calls notice a lost peer on
// their own; this is for a rank parked outside the runtime (waiting on a
// channel for its driver's next command), which must return for RunOpts
// to finish.
func (c *Comm) Unwound() <-chan struct{} { return c.w.unwound }

// Rank returns this rank's index in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.size }

// Clock returns the rank's current virtual time in seconds.
func (c *Comm) Clock() float64 { return c.clock }

// Compute advances the rank's virtual clock by dt seconds of modelled
// local work. Negative dt is ignored.
func (c *Comm) Compute(dt float64) {
	if dt > 0 {
		c.clock += dt
	}
}

// SetClock forces the virtual clock; the drivers use it to reset
// between warm-up and measured iterations.
func (c *Comm) SetClock(t float64) { c.clock = t }

// payloadBytes is the modelled wire size of a message: 8 bytes per
// float64 plus 4 per int32 (the virtual platforms override integer
// width in their compute model, not on the wire).
func payloadBytes(f []float64, i []int32) int { return 8*len(f) + 4*len(i) }

// Send posts an eager, buffered send of the two payload slices to dst
// with the given tag. The slices are copied so the caller may reuse
// its buffers immediately (MPI buffered-send semantics).
func (c *Comm) Send(dst, tag int, f []float64, ints []int32) {
	if dst < 0 || dst >= c.size {
		panic(fmt.Sprintf("mp: send to invalid rank %d of %d", dst, c.size))
	}
	bytes := payloadBytes(f, ints)
	p := packet{
		src:    c.rank,
		tag:    tag,
		sentAt: c.clock,
		cost:   c.w.net.MsgCost(c.rank, dst, c.modelBytes(bytes)),
	}
	if len(f) > 0 {
		p.f = c.w.getF(len(f))
		copy(p.f, f)
	}
	if len(ints) > 0 {
		p.i = c.w.getI(len(ints))
		copy(p.i, ints)
	}
	if c.w.integrity {
		key := seqKey(dst, tag)
		p.seq = c.sendSeq[key]
		c.sendSeq[key] = p.seq + 1
		p.sum = checksum(p.seq, p.f, p.i)
	}
	c.TC.MsgsSent++
	c.TC.BytesSent += int64(bytes)
	if c.w.net.SameNode(c.rank, dst) {
		c.TC.MsgsIntra++
		c.TC.BytesIntra += int64(bytes)
	}
	if fp := c.w.faults; fp != nil {
		dup, delay := fp.mangle(c, &p)
		if delay > 0 {
			time.Sleep(delay)
		}
		c.w.boxes[dst].put(p)
		if dup != nil {
			// Delivered right after the original so the receiver's
			// sequence check classifies it as a pure duplicate.
			c.w.boxes[dst].put(*dup)
		}
		return
	}
	c.w.boxes[dst].put(p)
}

// FreeBuffers returns payload slices obtained from Recv to the
// world's message-buffer pool, making the steady-state exchange
// allocation-free. Calling it is optional — unreturned buffers are
// simply garbage collected — but a caller that frees a slice must not
// touch it (or any sub-slice of it) afterwards. nil slices are
// ignored, so both return values of Recv can always be passed.
func (c *Comm) FreeBuffers(f []float64, ints []int32) { c.w.free(f, ints) }

// Recv blocks until a message with the given source and tag arrives
// and returns its payloads. The rank's clock advances to at least the
// send time plus the modelled transfer cost. The returned slices come
// from the world's buffer pool; hand them back with FreeBuffers once
// consumed to keep the exchange allocation-free.
func (c *Comm) Recv(src, tag int) ([]float64, []int32) {
	if src < 0 || src >= c.size {
		panic(fmt.Sprintf("mp: recv from invalid rank %d of %d", src, c.size))
	}
	for {
		p := c.w.boxes[c.rank].take(src, tag)
		if c.w.integrity {
			key := seqKey(src, tag)
			want := c.recvSeq[key]
			if p.seq < want {
				// A duplicate of an already-delivered message: discard
				// silently, without advancing the clock — rejected
				// traffic must not perturb the virtual timeline.
				c.TC.MsgsRejected++
				c.w.free(p.f, p.i)
				continue
			}
			if p.seq > want {
				panic(&fault.Error{Kind: fault.Sequence, Rank: c.rank, Step: c.step, Op: "recv",
					Detail: fmt.Sprintf("message from rank %d tag %d arrived with seq %d, want %d", src, tag, p.seq, want)})
			}
			if checksum(p.seq, p.f, p.i) != p.sum {
				panic(&fault.Error{Kind: fault.Corrupt, Rank: c.rank, Step: c.step, Op: "recv",
					Detail: fmt.Sprintf("checksum mismatch on message from rank %d tag %d seq %d", src, tag, p.seq)})
			}
			c.recvSeq[key] = want + 1
		}
		arrive := p.sentAt + p.cost
		if arrive > c.clock {
			c.clock = arrive
		}
		return p.f, p.i
	}
}

// SendRecv performs the matched exchange the halo swap is built from:
// send to dst and receive from src with the same tag, without
// deadlock (sends are eager). It mirrors MPI_Sendrecv.
func (c *Comm) SendRecv(dst, tag int, f []float64, ints []int32, src int) ([]float64, []int32) {
	c.Send(dst, tag, f, ints)
	return c.Recv(src, tag)
}
