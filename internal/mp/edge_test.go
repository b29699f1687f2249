package mp

import (
	"math"
	"testing"
	"time"
)

func TestDimsCreatePanicsOnBadInput(t *testing.T) {
	for _, in := range [][2]int{{0, 2}, {4, 0}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DimsCreate%v accepted", in)
				}
			}()
			DimsCreate(in[0], in[1])
		}()
	}
}

func TestRunPanicsOnZeroRanks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Run(0, ...) accepted")
		}
	}()
	Run(0, nil, func(c *Comm) {})
}

func TestByteScaleAffectsModelledCostOnly(t *testing.T) {
	net := LatBwNetwork{CPUsPerNode: 1, InterLat: 0, InterBw: 1e6, IntraLat: 0, IntraBw: 1e6}
	Run(2, net, func(c *Comm) {
		if c.Rank() == 0 {
			c.SetByteScale(10)
			c.Send(1, 0, make([]float64, 100), nil) // 800 bytes, modelled as 8000
			if c.TC.BytesSent != 800 {
				t.Errorf("counter recorded %d bytes, want raw 800", c.TC.BytesSent)
			}
		} else {
			c.Recv(0, 0)
			want := 8000.0 / 1e6
			if math.Abs(c.Clock()-want) > 1e-12 {
				t.Errorf("receiver clock %g, want %g (scaled bytes)", c.Clock(), want)
			}
		}
	})
}

func TestSetByteScaleIgnoresNonPositive(t *testing.T) {
	Run(1, nil, func(c *Comm) {
		c.SetByteScale(-3)
		if c.modelBytes(100) != 100 {
			t.Error("non-positive scale not reset to 1")
		}
	})
}

func TestSendRecvSelf(t *testing.T) {
	Run(1, nil, func(c *Comm) {
		c.Send(0, 9, []float64{3}, []int32{4})
		f, i := c.Recv(0, 9)
		if f[0] != 3 || i[0] != 4 {
			t.Errorf("self sendrecv got %v %v", f, i)
		}
		if c.Clock() != 0 {
			t.Errorf("self message charged %g", c.Clock())
		}
	})
}

func TestComputeIgnoresNegative(t *testing.T) {
	Run(1, nil, func(c *Comm) {
		c.Compute(-5)
		if c.Clock() != 0 {
			t.Error("negative compute advanced the clock")
		}
		c.SetClock(3)
		if c.Clock() != 3 {
			t.Error("SetClock failed")
		}
	})
}

// TestAllreduceLengthMismatchPanics: ranks passing different lengths
// is a program bug and must panic out of Run, in the blocking and the
// split-phase form alike, without leaving the collective mutex held
// (which would hang the run instead).
func TestAllreduceLengthMismatchPanics(t *testing.T) {
	for _, tc := range []struct {
		name   string
		reduce func(c *Comm, v []float64)
	}{
		{"blocking", func(c *Comm, v []float64) { c.AllreduceInPlace(v, Sum) }},
		{"split-phase", func(c *Comm, v []float64) { c.IAllreduceInPlace(v, Sum).Wait() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			panicked := make(chan bool, 1)
			go func() {
				defer func() { panicked <- recover() != nil }()
				Run(2, nil, func(c *Comm) { tc.reduce(c, make([]float64, c.Rank()+1)) })
			}()
			select {
			case p := <-panicked:
				if !p {
					t.Error("length mismatch accepted")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("length mismatch hung the run")
			}
		})
	}
}
