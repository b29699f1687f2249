package shm

import (
	"sync/atomic"
	"testing"
	"time"

	"hybriddem/internal/cell"
	"hybriddem/internal/fault"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
)

// expectFault runs f expecting a panic carrying a typed *fault.Error
// of the given kind, and returns it.
func expectFault(t *testing.T, kind fault.Kind, f func()) *fault.Error {
	t.Helper()
	var got *fault.Error
	func() {
		defer func() {
			e := recover()
			if e == nil {
				t.Fatalf("no panic, want a %v fault", kind)
			}
			fe := fault.From(e)
			if fe == nil {
				t.Fatalf("untyped panic %v, want a %v fault", e, kind)
			}
			if fe.Kind != kind {
				t.Fatalf("fault kind %v, want %v (%v)", fe.Kind, kind, fe)
			}
			got = fe
		}()
		f()
	}()
	return got
}

// TestSplitPhaseAbortThenReuse: a panic inside a split-phase region
// must surface at FinishRegion, and the team must run further regions
// — both split-phase and fused — without deadlock or stale state.
func TestSplitPhaseAbortThenReuse(t *testing.T) {
	tm := NewTeam(3, Costs{})
	defer tm.Close()
	for cycle := 0; cycle < 3; cycle++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("split-phase panic did not propagate")
				}
			}()
			tm.StartRegion(funcBody(func(th *Thread) {
				if th.ID == 1 {
					panic("boom")
				}
				th.Barrier()
			}))
			tm.FinishRegion(tm.Clock())
		}()
		var mask int64
		tm.StartRegion(funcBody(func(th *Thread) {
			atomic.AddInt64(&mask, 1<<uint(th.ID))
			th.Barrier()
		}))
		tm.FinishRegion(tm.Clock())
		if mask != 7 {
			t.Fatalf("cycle %d: post-abort region ran thread mask %b, want 111", cycle, mask)
		}
	}
}

// TestFinishRegionPrefersTypedFault: when one thread raises a typed
// fault and its siblings die untyped on the abandoned barrier, the
// typed fault must win regardless of thread order — the mp layer
// classifies the run by it.
func TestFinishRegionPrefersTypedFault(t *testing.T) {
	tm := NewTeam(3, Costs{})
	defer tm.Close()
	fe := expectFault(t, fault.Timeout, func() {
		tm.Region(func(th *Thread) {
			// The highest thread ID raises the typed fault, so a scan
			// that stops at the first recorded panic (thread 0's
			// untyped barrier abandonment) would misreport.
			if th.ID == 2 {
				panic(&fault.Error{Kind: fault.Timeout, Rank: -1, Step: -1, Op: "test"})
			}
			th.Barrier()
		})
	})
	if fe.Op != "test" {
		t.Errorf("fault op %q, want the typed thread's", fe.Op)
	}
}

// TestHaloGateAbortThenReuse: Abort must release every waiter with a
// typed Abandoned fault, and after Reset the same gate must serve a
// normal open cycle.
func TestHaloGateAbortThenReuse(t *testing.T) {
	tm := NewTeam(4, Costs{})
	defer tm.Close()
	g := NewHaloGate()

	g.Reset()
	tm.StartRegion(funcBody(func(th *Thread) {
		g.Wait(th)
	}))
	time.Sleep(time.Millisecond) // let workers reach the gate
	g.Abort()
	expectFault(t, fault.Abandoned, func() { tm.FinishRegion(tm.Clock()) })

	// Reused after reset: a normal open cycle with a clock advance.
	g.Reset()
	tm.StartRegion(funcBody(func(th *Thread) {
		g.Wait(th)
	}))
	g.Open(tm.Clock() + 5)
	tm.FinishRegion(tm.Clock() + 5)
	if g.MaxStall() <= 0 {
		t.Error("reused gate recorded no stall for a late open")
	}
}

// TestHaloGateDeadlineTimeout: with a deadline armed, waiters on a
// gate whose master never opens it must surface a typed Timeout —
// bounded in wall time — instead of hanging the region forever.
func TestHaloGateDeadlineTimeout(t *testing.T) {
	const wd = 30 * time.Millisecond
	tm := NewTeam(3, Costs{})
	defer tm.Close()
	g := NewHaloGate()
	g.SetDeadline(wd)

	g.Reset()
	start := time.Now()
	tm.StartRegion(funcBody(func(th *Thread) {
		g.Wait(th)
	}))
	expectFault(t, fault.Timeout, func() { tm.FinishRegion(tm.Clock()) })
	if elapsed := time.Since(start); elapsed > 50*wd {
		t.Errorf("gate timeout took %v with a %v deadline", elapsed, wd)
	}

	// The deadline persists across Reset but an opened gate never
	// trips it.
	g.Reset()
	tm.StartRegion(funcBody(func(th *Thread) {
		g.Wait(th)
	}))
	g.Open(tm.Clock())
	tm.FinishRegion(tm.Clock())
}

// TestRaceGateAbortOpenCycles stresses the gate's abort/open/reset and
// watchdog-timer paths under the race detector: repeated cycles where
// the master either opens or aborts while workers sit at the gate.
func TestRaceGateAbortOpenCycles(t *testing.T) {
	tm := NewTeam(4, Costs{})
	defer tm.Close()
	g := NewHaloGate()
	g.SetDeadline(time.Second) // armed, but never meant to fire
	for i := 0; i < 50; i++ {
		g.Reset()
		tm.StartRegion(funcBody(func(th *Thread) {
			g.Wait(th)
		}))
		if i%3 == 0 {
			g.Abort()
			func() {
				defer func() { recover() }()
				tm.FinishRegion(tm.Clock())
			}()
		} else {
			g.Open(tm.Clock() + float64(i))
			tm.FinishRegion(tm.Clock())
		}
	}
	// The team must still be healthy.
	var mask int64
	tm.Region(func(th *Thread) {
		atomic.AddInt64(&mask, 1<<uint(th.ID))
	})
	if mask != 15 {
		t.Fatalf("final region ran thread mask %b, want 1111", mask)
	}
}

// TestHaloGateEmptyChunks pins the gate rule for a thread whose chunk
// of the force loop is empty, as it is when block 0 of an overlapped
// hybrid region has fewer links than T. Over one block every thread
// runs its chunk, empty or not, so a thread whose empty chunk lies at
// or past the core/halo boundary waits on the gate: the stall it pays
// from the region start is the region's exposed communication. Over
// several blocks a thread skips the blocks its chunk misses and waits
// only where it meets halo links. Costs are zero, so a thread's clock
// is the region start (1e-4), the master's start (2e-4) or the gate's
// opening (3e-4).
func TestHaloGateEmptyChunks(t *testing.T) {
	box := geom.NewBox(2, 1, geom.Reflecting)
	sp := force.Spring{Diameter: 0.09, K: 40}
	store := func(n int) *particle.Store {
		ps := particle.New(2, n)
		for i := 0; i < n; i++ {
			ps.Append(geom.Vec{0.1 + 0.05*float64(i), 0.5}, geom.Vec{}, int32(i))
		}
		return ps
	}
	empty := &BlockStore{PS: store(3), NCore: 3}
	// One core link and one halo link: the chunks of four threads are
	// [0,0] [0,1] [1,1] [1,2], and thread 2's empty one lies at the
	// boundary.
	tiny := &BlockStore{PS: store(3), NCore: 2, Links: []cell.Link{{I: 0, J: 1}, {I: 0, J: 2}}, NCoreLinks: 1}
	var core []cell.Link
	for i := int32(0); i < 4; i++ {
		for j := i + 1; j < 5; j++ {
			core = append(core, cell.Link{I: i, J: j})
		}
	}
	full := &BlockStore{PS: store(5), NCore: 5, Links: core, NCoreLinks: len(core)}
	start, opened := 1e-4, 3e-4
	stall := opened - start // at run time: the clocks subtract in float64

	cases := []struct {
		name   string
		blocks []*BlockStore
		T      int
		clocks []float64
		stall  float64
	}{
		{"one-block/no-links", []*BlockStore{empty}, 3, []float64{3e-4, 3e-4, 3e-4}, stall},
		{"one-block/fewer-links-than-T", []*BlockStore{tiny}, 4, []float64{2e-4, 1e-4, 3e-4, 3e-4}, stall},
		{"two-blocks/first-empty", []*BlockStore{empty, full}, 3, []float64{2e-4, 1e-4, 1e-4}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tm := NewTeam(c.T, Costs{})
			defer tm.Close()
			tm.SetClock(start)
			u := NewUpdater(SelectedAtomic)
			u.PrepareBlocks(c.blocks, c.T)
			gate := NewHaloGate()
			u.AccumulateStart(tm, sp, box, false, gate)
			gate.Open(opened)
			u.AccumulateFinish(tm, 2e-4)
			for i, th := range tm.threads {
				if th.clock != c.clocks[i] {
					t.Errorf("thread %d clock %g, want %g", i, th.clock, c.clocks[i])
				}
			}
			if gate.MaxStall() != c.stall {
				t.Errorf("MaxStall %g, want %g", gate.MaxStall(), c.stall)
			}
		})
	}
}
