package mp

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"hybriddem/internal/fault"
	"hybriddem/internal/raceflag"
)

// blockingEntries are the operations a rank can park in, each with the
// Op label its faults carry. Every rank builds the window (NewWin does
// not rendezvous), so the fence entry has a peer to wait for.
var blockingEntries = []struct {
	name, op string
	call     func(c *Comm, win *Win)
}{
	{"Barrier", "barrier", func(c *Comm, _ *Win) { c.Barrier() }},
	{"AllreduceInPlace", "collective", func(c *Comm, _ *Win) { c.AllreduceInPlace(make([]float64, 3), Sum) }},
	{"AllreduceScalar", "collective", func(c *Comm, _ *Win) { c.AllreduceScalar(1, Max) }},
	{"IAllreduceInPlace+Wait", "collective", func(c *Comm, _ *Win) { c.IAllreduceInPlace(make([]float64, 2), Sum).Wait() }},
	{"Win.Fence", "fence", func(_ *Comm, win *Win) { win.Fence() }},
	{"Recv", "recv", func(c *Comm, _ *Win) { c.Recv(1, 3) }},
}

// TestWatchdogEveryRendezvous: rank 0 parks in each blocking entry
// point while rank 1 never arrives. Under an armed watchdog the wait
// must end in rank 0's typed Timeout; without one, a kill of rank 1
// must wake rank 0 as an Abandoned casualty and the run must report the
// kill as its root cause. Every fault names its rank, the step of the
// last FaultPoint and, for the waiter, the entry's Op label.
func TestWatchdogEveryRendezvous(t *testing.T) {
	const step = 4
	check := func(t *testing.T, fe *fault.Error, kind fault.Kind, op string, rank int) {
		t.Helper()
		if fe == nil {
			t.Fatalf("no typed fault, want %v during %s at rank %d", kind, op, rank)
		}
		if fe.Kind != kind || fe.Op != op || fe.Rank != rank || fe.Step != step {
			t.Errorf("got %v (kind %v op %q rank %d step %d), want kind %v op %q rank %d step %d",
				fe, fe.Kind, fe.Op, fe.Rank, fe.Step, kind, op, rank, step)
		}
	}
	// run executes the scenario off the test goroutine so a hang fails
	// the test instead of stalling it; casualty is rank 0's own fault.
	run := func(t *testing.T, opt RunOptions, call func(*Comm, *Win)) (err error, casualty *fault.Error) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, err = RunOpts(2, opt, func(c *Comm) {
				win := NewWin(c.SplitNode(), WinCosts{})
				c.FaultPoint(step)
				if c.Rank() != 0 {
					return
				}
				defer func() {
					if e := recover(); e != nil {
						casualty = fault.From(e)
						panic(e)
					}
				}()
				call(c, win)
			})
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("rank 0 hung on a peer that never arrives")
		}
		return err, casualty
	}
	for _, e := range blockingEntries {
		t.Run(e.name+"/timeout", func(t *testing.T) {
			err, casualty := run(t, RunOptions{Watchdog: 50 * time.Millisecond}, e.call)
			var fe *fault.Error
			if !errors.As(err, &fe) {
				t.Fatalf("want a typed fault, got %v", err)
			}
			check(t, fe, fault.Timeout, e.op, 0)
			check(t, casualty, fault.Timeout, e.op, 0)
		})
		t.Run(e.name+"/killed", func(t *testing.T) {
			plan := NewFaultPlan(1)
			plan.ArmKill(1, step)
			err, casualty := run(t, RunOptions{Faults: plan}, e.call)
			check(t, fault.From(err), fault.Killed, "faultpoint", 1)
			check(t, casualty, fault.Abandoned, e.op, 0)
		})
	}
}

// TestCollectivesSteadyStateZeroAlloc gates the rendezvous itself:
// once the generation states, the request handles and the combine
// buffers exist, a round of every collective entry point allocates
// nothing anywhere in the world. Process-wide mallocs are counted
// across a barrier-fenced window with the collector off, as the core
// step gates do.
func TestCollectivesSteadyStateZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	const warm, iters = 20, 200
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, p := range []int{2, 3} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			var mallocs uint64
			Run(p, ZeroNetwork{}, func(c *Comm) {
				win := NewWin(c.SplitNode(), WinCosts{})
				win.Reserve(8)
				v := make([]float64, 4)
				w := make([]float64, 1)
				round := func() {
					c.Barrier()
					c.AllreduceInPlace(v, Sum)
					c.AllreduceScalar(float64(c.Rank()), Max)
					r := c.IAllreduceInPlace(w, Min)
					c.AllreduceInPlace(v, Max)
					r.Wait()
					win.Fence()
				}
				for i := 0; i < warm; i++ {
					round()
				}
				var m1, m2 runtime.MemStats
				c.Barrier()
				if c.Rank() == 0 {
					runtime.GC()
					runtime.ReadMemStats(&m1)
				}
				c.Barrier()
				for i := 0; i < iters; i++ {
					round()
				}
				c.Barrier()
				if c.Rank() == 0 {
					runtime.ReadMemStats(&m2)
					mallocs = m2.Mallocs - m1.Mallocs
				}
				c.Barrier()
			})
			// Truncated like testing.AllocsPerRun: a one-off event (a stack
			// growing mid-window) is tolerated, a per-round allocation is not.
			if per := mallocs / iters; per != 0 {
				t.Errorf("a steady-state round of collectives allocates %d times (%d in %d rounds), want 0",
					per, mallocs, iters)
			}
		})
	}
}
