package mp

import (
	"errors"
	"testing"
	"time"

	"hybriddem/internal/fault"
)

// TestSplitNodeGrouping checks the MPI_Comm_split_type analogue
// against both network shapes: a platform network groups consecutive
// ranks by CPUsPerNode, ZeroNetwork puts the whole world on one node.
func TestSplitNodeGrouping(t *testing.T) {
	net := LatBwNetwork{CPUsPerNode: 4, IntraLat: 1e-6, IntraBw: 1e9, InterLat: 1e-5, InterBw: 1e8}
	Run(8, net, func(c *Comm) {
		g := c.SplitNode()
		if g.Size() != 4 {
			t.Errorf("rank %d: group size %d, want 4", c.Rank(), g.Size())
		}
		node := c.Rank() / 4
		for i, r := range g.Ranks() {
			if want := node*4 + i; r != want {
				t.Errorf("rank %d: group member %d is rank %d, want %d", c.Rank(), i, r, want)
			}
		}
		if g.index != c.Rank()%4 {
			t.Errorf("rank %d: index %d, want %d", c.Rank(), g.index, c.Rank()%4)
		}
	})
	Run(6, ZeroNetwork{}, func(c *Comm) {
		g := c.SplitNode()
		if g.Size() != 6 || g.index != c.Rank() {
			t.Errorf("rank %d: ZeroNetwork group size %d index %d, want 6 and %d",
				c.Rank(), g.Size(), g.index, c.Rank())
		}
	})
}

// TestWinSliceGetViewVisibility drives several full fence epochs:
// every rank packs an epoch-stamped pattern into its own region
// through Slice, fences, and loads every peer's region, whole and at
// an offset — each view must see exactly what the owner wrote there.
func TestWinSliceGetViewVisibility(t *testing.T) {
	const p, slots, epochs = 4, 16, 5
	Run(p, ZeroNetwork{}, func(c *Comm) {
		g := c.SplitNode()
		win := NewWin(g, WinCosts{})
		win.Reserve(slots)
		for e := 0; e < epochs; e++ {
			dst := win.Slice(0, slots)
			for i := range dst {
				dst[i] = float64(1000*c.Rank() + 100*e + i)
			}
			win.Fence()
			for peer := 0; peer < g.Size(); peer++ {
				whole := win.GetView(peer, 0, slots)
				part := win.GetView(peer, 3, 5)
				for i := 0; i < slots; i++ {
					want := float64(1000*g.Ranks()[peer] + 100*e + i)
					if whole[i] != want || (i >= 3 && i < 8 && part[i-3] != want) {
						t.Errorf("rank %d epoch %d: peer %d slot %d = %v, want %v",
							c.Rank(), e, peer, i, whole[i], want)
						return
					}
				}
			}
			win.Fence() // close the read epoch before the next write
		}
	})
}

// TestWinFenceClock checks the cost model: a fence equalises the group
// at the maximum member clock plus FenceLat, and a fenced load from a
// peer advances only the reader, by bytes/LoadBw; reading one's own
// region is free.
func TestWinFenceClock(t *testing.T) {
	costs := WinCosts{LoadBw: 1e8, FenceLat: 2e-6}
	comms := Run(2, ZeroNetwork{}, func(c *Comm) {
		g := c.SplitNode()
		win := NewWin(g, costs)
		win.Reserve(10)
		c.SetClock(float64(3 + 7*c.Rank())) // clocks 3 and 10
		win.Fence()
		if want := 10 + costs.FenceLat; c.Clock() != want {
			t.Errorf("rank %d: post-fence clock %v, want %v", c.Rank(), c.Clock(), want)
		}
		if c.Rank() == 0 {
			win.GetView(1, 0, 10) // 80 bytes from the peer
			if want := 10 + costs.FenceLat + 80/costs.LoadBw; c.Clock() != want {
				t.Errorf("rank 0: post-load clock %v, want %v", c.Clock(), want)
			}
		} else {
			win.GetView(1, 0, 10) // own region: free
			if want := 10 + costs.FenceLat; c.Clock() != want {
				t.Errorf("rank 1: self-load moved the clock to %v, want %v", c.Clock(), want)
			}
		}
	})
	for _, c := range comms {
		if c.TC.WinFences != 2 { // Reserve's publication fence + the explicit one
			t.Errorf("rank %d: %d fences, want 2", c.Rank(), c.TC.WinFences)
		}
		if c.TC.WinLoadBytes != 80 {
			t.Errorf("rank %d: %d window bytes loaded, want 80", c.Rank(), c.TC.WinLoadBytes)
		}
	}
}

// TestWinGroupOfOne: on a single-CPU node (T3E-style) the group is the
// rank alone and a fence must not block or rendezvous with anyone.
func TestWinGroupOfOne(t *testing.T) {
	net := LatBwNetwork{CPUsPerNode: 1, IntraLat: 1e-6, IntraBw: 1e9, InterLat: 1e-5, InterBw: 1e8}
	Run(3, net, func(c *Comm) {
		g := c.SplitNode()
		if g.Size() != 1 {
			t.Fatalf("rank %d: group size %d, want 1", c.Rank(), g.Size())
		}
		win := NewWin(g, WinCosts{FenceLat: 1})
		win.Reserve(4)
		before := c.Clock()
		win.Fence()
		if c.Clock() != before {
			t.Errorf("rank %d: lone-rank fence advanced the clock", c.Rank())
		}
	})
}

// TestWinRaceStress is the -race workout: many ranks hammer the
// write-fence-read-fence cycle with a mid-run Reserve regrowth, so the
// detector sees the Put/GetView pairs ordered only by the fence's
// happens-before edge and Reserve's publication of fresh storage.
func TestWinRaceStress(t *testing.T) {
	const p, epochs = 8, 150
	Run(p, ZeroNetwork{}, func(c *Comm) {
		g := c.SplitNode()
		win := NewWin(g, WinCosts{})
		size := 32
		win.Reserve(size)
		for e := 0; e < epochs; e++ {
			if e == epochs/2 {
				size = 64 // collective regrowth republishes every buffer
				win.Reserve(size)
			}
			dst := win.Slice(0, size)
			for i := range dst {
				dst[i] = float64(c.Rank()*epochs + e)
			}
			win.Fence()
			for peer := 0; peer < p; peer++ {
				v := win.GetView(peer, 0, size)
				want := float64(peer*epochs + e)
				for i, x := range v {
					if x != want {
						t.Errorf("rank %d epoch %d: peer %d slot %d = %v, want %v",
							c.Rank(), e, peer, i, x, want)
						return
					}
				}
			}
			win.Fence()
		}
	})
}

// TestWinFenceWatchdogTimeout: a fence whose peer never arrives must
// trip the armed watchdog and surface as a classified Timeout fault
// instead of hanging the run.
func TestWinFenceWatchdogTimeout(t *testing.T) {
	_, err := RunOpts(2, RunOptions{Watchdog: 100 * time.Millisecond}, func(c *Comm) {
		g := c.SplitNode()
		win := NewWin(g, WinCosts{})
		if c.Rank() == 1 {
			return // never fences
		}
		win.Fence()
	})
	var fe *fault.Error
	if !errors.As(err, &fe) {
		t.Fatalf("error is not a typed fault: %v", err)
	}
	if fe.Kind != fault.Timeout || fe.Op != "fence" {
		t.Fatalf("fault = kind %v op %q, want Timeout on fence (%v)", fe.Kind, fe.Op, err)
	}
}

// TestWinFenceAbandonedByKill: without a watchdog an injected kill
// fails fast — the waiting fence must wake via the any-panic abort and
// the run must classify the root cause as the kill, not deadlock.
func TestWinFenceAbandonedByKill(t *testing.T) {
	plan := NewFaultPlan(1)
	plan.ArmKill(1, 0)
	done := make(chan error, 1)
	go func() {
		_, err := RunOpts(2, RunOptions{Faults: plan}, func(c *Comm) {
			g := c.SplitNode()
			win := NewWin(g, WinCosts{})
			c.FaultPoint(0) // rank 1 dies here
			win.Fence()
		})
		done <- err
	}()
	select {
	case err := <-done:
		var fe *fault.Error
		if !errors.As(err, &fe) {
			t.Fatalf("error is not a typed fault: %v", err)
		}
		if fe.Kind != fault.Killed {
			t.Fatalf("fault kind = %v, want Killed (%v)", fe.Kind, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fence deadlocked on a killed peer")
	}
}
