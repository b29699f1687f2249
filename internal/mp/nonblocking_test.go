package mp

import (
	"math"
	"testing"
)

func TestISendIRecvRoundTrip(t *testing.T) {
	Run(2, nil, func(c *Comm) {
		if c.Rank() == 0 {
			req := c.ISend(1, 5, []float64{7}, []int32{9})
			f, i := req.Wait()
			if f != nil || i != nil {
				t.Error("send Wait returned payloads")
			}
		} else {
			req := c.IRecv(0, 5)
			f, i := req.Wait()
			if f[0] != 7 || i[0] != 9 {
				t.Errorf("IRecv got %v %v", f, i)
			}
			// Waiting again returns the same payloads.
			f2, _ := req.Wait()
			if f2[0] != 7 {
				t.Error("double Wait lost payload")
			}
		}
	})
}

func TestIRecvOverlapsVirtualTime(t *testing.T) {
	// Compute performed between IRecv and Wait must overlap the
	// transfer: the receiver's final clock is max(local work, message
	// arrival), not their sum.
	net := LatBwNetwork{CPUsPerNode: 1, InterLat: 1.0, InterBw: 1e9, IntraLat: 1.0, IntraBw: 1e9}
	Run(2, net, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1}, nil)
		} else {
			req := c.IRecv(0, 0)
			c.Compute(0.4) // overlapped with the 1s transfer
			req.Wait()
			// Arrival at ~1s dominates the 0.4s of local work.
			if math.Abs(c.Clock()-(1.0+8e-9)) > 1e-9 {
				t.Errorf("receiver clock %g, want ~1.0 (overlap)", c.Clock())
			}
		}
	})
}

// TestIAllreduceOverlapsVirtualTime: compute between the post and the
// Wait runs during the collective, so Wait leaves at max(own clock,
// completion) — a short computation is hidden, a long one is not
// charged the collective's cost on top.
func TestIAllreduceOverlapsVirtualTime(t *testing.T) {
	net := LatBwNetwork{CPUsPerNode: 2, IntraLat: 1.0, IntraBw: 1e9}
	done := net.CollectiveCost(2, 8)
	for _, work := range []float64{0.4, 2.0} {
		comms := Run(2, net, func(c *Comm) {
			req := c.IAllreduceInPlace([]float64{1}, Sum)
			c.Compute(work)
			req.Wait()
		})
		for _, c := range comms {
			if want := max(work, done); c.Clock() != want {
				t.Errorf("work %g: rank %d clock %g after Wait, want %g", work, c.Rank(), c.Clock(), want)
			}
		}
	}
}

func TestIRecvInvalidRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid IRecv source accepted")
		}
	}()
	Run(1, nil, func(c *Comm) {
		c.IRecv(7, 0)
	})
}

func TestMixedCollectiveSequence(t *testing.T) {
	// Interleave every collective type repeatedly, with a split-phase
	// allreduce left open across the blocking ones and a window fence
	// on the node group's own rendezvous in between: the generation
	// bookkeeping must pair them correctly.
	Run(4, nil, func(c *Comm) {
		win := NewWin(c.SplitNode(), WinCosts{})
		posted := make([]float64, 2)
		for i := 0; i < 10; i++ {
			posted[0], posted[1] = float64(c.Rank()), float64(i)
			req := c.IAllreduceInPlace(posted, Max)
			if s := c.AllreduceScalar(1, Sum); s != 4 {
				t.Errorf("iter %d: sum %g", i, s)
			}
			c.Barrier()
			win.Fence()
			v := []float64{float64(c.Rank()), 1}
			c.AllreduceInPlace(v, Sum)
			if v[0] != 6 || v[1] != 4 {
				t.Errorf("iter %d: allreduce %v", i, v)
			}
			req.Wait()
			if posted[0] != 3 || posted[1] != float64(i) {
				t.Errorf("iter %d: posted allreduce %v", i, posted)
			}
		}
	})
}
