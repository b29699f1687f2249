package mp

import (
	"errors"
	"testing"
	"time"

	"hybriddem/internal/fault"
)

// pingPong runs a fixed two-rank exchange workload under the given
// options and returns the receiver's comm plus the run error.
func pingPong(t *testing.T, opt RunOptions, rounds int) ([]*Comm, error) {
	t.Helper()
	return RunOpts(2, opt, func(c *Comm) {
		for i := 0; i < rounds; i++ {
			if c.Rank() == 0 {
				c.Send(1, 7, []float64{float64(i), float64(i) * 0.5}, []int32{int32(i)})
			} else {
				f, ids := c.Recv(0, 7)
				if len(f) != 2 || f[0] != float64(i) || ids[0] != int32(i) {
					t.Errorf("round %d: received %v %v", i, f, ids)
				}
				c.FreeBuffers(f, ids)
			}
		}
	})
}

func TestFaultPlanDeterministic(t *testing.T) {
	stats := func() FaultStats {
		plan := NewFaultPlan(42)
		plan.CorruptProb = 0 // keep runs healthy: only benign injections
		plan.DuplicateProb = 0.3
		plan.DelayProb = 0.2
		plan.DelayWall = time.Microsecond
		if _, err := pingPong(t, RunOptions{Faults: plan}, 40); err != nil {
			t.Fatalf("benign injection run failed: %v", err)
		}
		return plan.Stats()
	}
	a, b := stats(), stats()
	if a != b {
		t.Fatalf("same seed, different injection decisions: %+v vs %+v", a, b)
	}
	if a.Duplicated == 0 || a.Delayed == 0 {
		t.Fatalf("injection probabilities never fired: %+v", a)
	}
}

func TestCorruptionSurfacesTypedError(t *testing.T) {
	plan := NewFaultPlan(1)
	plan.CorruptProb = 1
	plan.MaxFaults = 1
	_, err := pingPong(t, RunOptions{Faults: plan}, 5)
	if err == nil {
		t.Fatal("corrupted exchange completed cleanly")
	}
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Kind != fault.Corrupt {
		t.Fatalf("want typed Corrupt fault, got %v", err)
	}
	if fe.Rank != 1 {
		t.Errorf("corruption detected at rank %d, want the receiver (1)", fe.Rank)
	}
}

// TestDuplicatesInvisibleToReceiver: with duplication armed, the
// receiver must see exactly the sent payload sequence, reject the
// copies without advancing its virtual clock, and finish with the same
// clock as a clean run of the identical workload.
func TestDuplicatesInvisibleToReceiver(t *testing.T) {
	clean, err := pingPong(t, RunOptions{}, 30)
	if err != nil {
		t.Fatal(err)
	}

	plan := NewFaultPlan(9)
	plan.DuplicateProb = 1
	comms, err := pingPong(t, RunOptions{Faults: plan}, 30)
	if err != nil {
		t.Fatalf("duplicated run failed: %v", err)
	}
	if plan.Stats().Duplicated == 0 {
		t.Fatal("no duplicates applied")
	}
	if comms[1].TC.MsgsRejected == 0 {
		t.Fatal("receiver rejected no duplicates")
	}
	if got, want := comms[1].Clock(), clean[1].Clock(); got != want {
		t.Errorf("duplicates advanced the receiver clock: %g, clean run %g", got, want)
	}
}

func TestDelayInjection(t *testing.T) {
	plan := NewFaultPlan(2)
	plan.DelayProb = 1
	plan.DelayWall = time.Millisecond
	plan.MaxFaults = 3
	start := time.Now()
	if _, err := pingPong(t, RunOptions{Faults: plan}, 5); err != nil {
		t.Fatalf("delayed run failed: %v", err)
	}
	if st := plan.Stats(); st.Delayed != 3 {
		t.Errorf("delays applied %d, want the MaxFaults budget of 3", st.Delayed)
	}
	if elapsed := time.Since(start); elapsed < 3*time.Millisecond {
		t.Errorf("run finished in %v, delays not served", elapsed)
	}
}

func TestKillSurfacesTypedError(t *testing.T) {
	for _, wd := range []time.Duration{0, 200 * time.Millisecond} {
		name := "fail-fast"
		if wd > 0 {
			name = "silent-under-watchdog"
		}
		t.Run(name, func(t *testing.T) {
			plan := NewFaultPlan(3)
			plan.ArmKill(1, 2)
			_, err := RunOpts(2, RunOptions{Faults: plan, Watchdog: wd}, func(c *Comm) {
				for i := 0; i < 6; i++ {
					c.FaultPoint(i)
					if c.Rank() == 0 {
						c.Send(1, 1, []float64{1}, nil)
					} else {
						f, ids := c.Recv(0, 1)
						c.FreeBuffers(f, ids)
					}
				}
			})
			if err == nil {
				t.Fatal("run with a killed rank completed cleanly")
			}
			var fe *fault.Error
			if !errors.As(err, &fe) {
				t.Fatalf("untyped error: %v", err)
			}
			// Fail-fast mode reports the kill directly. Under a
			// watchdog the death is silent, so the run may surface
			// either the kill itself or a peer's timeout discovering it.
			if wd == 0 && fe.Kind != fault.Killed {
				t.Fatalf("kind %v, want Killed", fe.Kind)
			}
			if wd > 0 && fe.Kind != fault.Killed && fe.Kind != fault.Timeout {
				t.Fatalf("kind %v, want Killed or Timeout", fe.Kind)
			}
			if plan.Stats().Killed != 1 {
				t.Errorf("kill stats %+v, want exactly one", plan.Stats())
			}
		})
	}
}

// TestKillReleasesParkedRank: a rank waiting outside the runtime — on
// its driver's command channel, which no mailbox abort or watchdog tick
// reaches — learns of a peer's death from Unwound, fail-fast or silent,
// and is not told of one that did not happen.
func TestKillReleasesParkedRank(t *testing.T) {
	for _, wd := range []time.Duration{0, 200 * time.Millisecond} {
		plan := NewFaultPlan(3)
		plan.ArmKill(1, 0)
		never := make(chan struct{})
		_, err := RunOpts(2, RunOptions{Faults: plan, Watchdog: wd}, func(c *Comm) {
			c.FaultPoint(0)
			select {
			case <-never:
			case <-c.Unwound():
			}
		})
		if fe := fault.From(err); fe == nil || fe.Kind != fault.Killed {
			t.Errorf("watchdog %v: run returned %v, want the kill", wd, err)
		}
	}
	Run(2, ZeroNetwork{}, func(c *Comm) {
		c.Barrier()
		select {
		case <-c.Unwound():
			t.Errorf("rank %d of a clean run told of a death", c.Rank())
		default:
		}
	})
}

func TestKillFiresOnce(t *testing.T) {
	plan := NewFaultPlan(4)
	plan.ArmKill(0, 0)
	if !plan.shouldKill(0, 0) {
		t.Fatal("armed kill did not fire")
	}
	if plan.shouldKill(0, 1) {
		t.Fatal("kill fired twice")
	}
	plan.ArmKill(0, 5)
	if !plan.shouldKill(0, 5) {
		t.Fatal("re-armed kill did not fire")
	}
}

// TestWatchdogRecvTimeout: a Recv whose sender has exited must surface
// a typed Timeout within the deadline order of magnitude, not hang, and
// name the step the receiver was in.
func TestWatchdogRecvTimeout(t *testing.T) {
	const wd, step = 50 * time.Millisecond, 7
	start := time.Now()
	_, err := RunOpts(2, RunOptions{Watchdog: wd}, func(c *Comm) {
		c.FaultPoint(step)
		if c.Rank() == 0 {
			f, ids := c.Recv(1, 3) // never sent
			c.FreeBuffers(f, ids)
		}
	})
	elapsed := time.Since(start)
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Kind != fault.Timeout {
		t.Fatalf("want typed Timeout, got %v", err)
	}
	if fe.Rank != 0 {
		t.Errorf("timeout reported at rank %d, want the blocked receiver", fe.Rank)
	}
	if fe.Step != step {
		t.Errorf("timeout reported at step %d, want %d", fe.Step, step)
	}
	if elapsed > 20*wd {
		t.Errorf("timeout took %v with a %v deadline", elapsed, wd)
	}
}

// TestWatchdogCollectiveTimeout: a collective abandoned by a returned
// rank must time out, not deadlock.
func TestWatchdogCollectiveTimeout(t *testing.T) {
	const wd = 50 * time.Millisecond
	_, err := RunOpts(3, RunOptions{Watchdog: wd}, func(c *Comm) {
		if c.Rank() == 2 {
			return // abandons the barrier
		}
		c.Barrier()
	})
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Kind != fault.Timeout {
		t.Fatalf("want typed Timeout from the abandoned barrier, got %v", err)
	}
	if fe.Op != "barrier" {
		t.Errorf("op = %q, want barrier", fe.Op)
	}
}

func TestNoIntegrityRejectsInjection(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NoIntegrity with corruption armed did not panic")
		}
	}()
	plan := NewFaultPlan(5)
	plan.CorruptProb = 0.5
	RunOpts(2, RunOptions{Faults: plan, NoIntegrity: true}, func(c *Comm) {})
}
