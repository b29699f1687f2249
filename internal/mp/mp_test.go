package mp

import (
	"math"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
)

func TestRunRankIdentity(t *testing.T) {
	const p = 7
	var mask int64
	comms := Run(p, nil, func(c *Comm) {
		if c.Size() != p {
			t.Errorf("size %d", c.Size())
		}
		atomic.AddInt64(&mask, 1<<uint(c.Rank()))
	})
	if mask != (1<<p)-1 {
		t.Errorf("ranks seen mask %b", mask)
	}
	if len(comms) != p {
		t.Errorf("%d comms returned", len(comms))
	}
}

func TestSendRecvRing(t *testing.T) {
	const p = 5
	Run(p, nil, func(c *Comm) {
		dst := (c.Rank() + 1) % p
		src := (c.Rank() + p - 1) % p
		c.Send(dst, 42, []float64{float64(c.Rank())}, []int32{int32(c.Rank())})
		f, ids := c.Recv(src, 42)
		if f[0] != float64(src) || ids[0] != int32(src) {
			t.Errorf("rank %d received %v %v, want from %d", c.Rank(), f, ids, src)
		}
	})
}

func TestMessageTagMatching(t *testing.T) {
	// Messages with different tags must match their own Recv even
	// when sent in the "wrong" order.
	Run(2, nil, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 2, []float64{2}, nil)
			c.Send(1, 1, []float64{1}, nil)
		} else {
			f1, _ := c.Recv(0, 1)
			f2, _ := c.Recv(0, 2)
			if f1[0] != 1 || f2[0] != 2 {
				t.Errorf("tag matching failed: %v %v", f1, f2)
			}
		}
	})
}

func TestNonOvertakingSameTag(t *testing.T) {
	Run(2, nil, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 20; i++ {
				c.Send(1, 7, []float64{float64(i)}, nil)
			}
		} else {
			for i := 0; i < 20; i++ {
				f, _ := c.Recv(0, 7)
				if f[0] != float64(i) {
					t.Fatalf("message %d overtaken by %v", i, f[0])
				}
			}
		}
	})
}

func TestSendCopiesPayload(t *testing.T) {
	Run(2, nil, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{1, 2, 3}
			c.Send(1, 0, buf, nil)
			buf[0] = 99 // must not affect the in-flight message
			c.Barrier()
		} else {
			c.Barrier()
			f, _ := c.Recv(0, 0)
			if f[0] != 1 {
				t.Errorf("send aliased caller buffer: %v", f)
			}
		}
	})
}

func TestAllreduceOps(t *testing.T) {
	const p = 4
	Run(p, nil, func(c *Comm) {
		r := float64(c.Rank())
		sum := []float64{r, -r}
		c.AllreduceInPlace(sum, Sum)
		if sum[0] != 6 || sum[1] != -6 {
			t.Errorf("sum = %v", sum)
		}
		max := c.AllreduceScalar(r, Max)
		if max != 3 {
			t.Errorf("max = %v", max)
		}
		min := c.AllreduceScalar(r, Min)
		if min != 0 {
			t.Errorf("min = %v", min)
		}
	})
}

func TestAllreduceDeterministicOrder(t *testing.T) {
	// Floating-point sums must combine in rank order regardless of
	// arrival order, so repeated runs agree bitwise.
	vals := []float64{1e-17, 1.0, -1.0, 3e-17}
	var results [8]float64
	for trial := 0; trial < 8; trial++ {
		Run(4, nil, func(c *Comm) {
			s := c.AllreduceScalar(vals[c.Rank()], Sum)
			if c.Rank() == 0 {
				results[trial] = s
			}
		})
	}
	for i := 1; i < 8; i++ {
		if results[i] != results[0] {
			t.Fatalf("allreduce not deterministic: %v", results)
		}
	}
}

func TestRepeatedCollectives(t *testing.T) {
	// Generation bookkeeping: many back-to-back collectives of mixed
	// type must pair up correctly.
	Run(3, nil, func(c *Comm) {
		for i := 0; i < 50; i++ {
			s := c.AllreduceScalar(float64(i), Sum)
			if s != float64(3*i) {
				t.Fatalf("iteration %d sum %v", i, s)
			}
			c.Barrier()
		}
	})
}

func TestVirtualClockMessageCausality(t *testing.T) {
	net := LatBwNetwork{CPUsPerNode: 1, InterLat: 1e-3, InterBw: 1e6, IntraLat: 1e-3, IntraBw: 1e6}
	comms := Run(2, net, func(c *Comm) {
		if c.Rank() == 0 {
			c.Compute(0.5)
			c.Send(1, 0, []float64{1}, nil)
		} else {
			c.Recv(0, 0)
			// 0.5 compute + 1ms latency + 8 bytes / 1e6.
			want := 0.5 + 1e-3 + 8e-6
			if math.Abs(c.Clock()-want) > 1e-12 {
				t.Errorf("receiver clock %g, want %g", c.Clock(), want)
			}
		}
	})
	if comms[0].Clock() != 0.5 {
		t.Errorf("sender clock %g", comms[0].Clock())
	}
}

func TestVirtualClockRecvDoesNotRewind(t *testing.T) {
	Run(2, nil, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1}, nil)
		} else {
			c.Compute(2.0) // receiver already ahead of sender
			c.Recv(0, 0)
			if c.Clock() != 2.0 {
				t.Errorf("recv rewound clock to %g", c.Clock())
			}
		}
	})
}

func TestBarrierEqualisesClocks(t *testing.T) {
	comms := Run(3, nil, func(c *Comm) {
		c.Compute(float64(c.Rank()))
		c.Barrier()
	})
	for _, c := range comms {
		if c.Clock() != 2.0 {
			t.Errorf("rank %d clock %g after barrier, want 2", c.Rank(), c.Clock())
		}
	}
}

func TestCollectiveClockIncludesCost(t *testing.T) {
	net := LatBwNetwork{CPUsPerNode: 4, IntraLat: 1e-4, IntraBw: 1e9}
	comms := Run(4, net, func(c *Comm) {
		c.AllreduceScalar(1, Sum)
	})
	want := net.CollectiveCost(4, 8)
	for _, c := range comms {
		if math.Abs(c.Clock()-want) > 1e-15 {
			t.Errorf("clock %g, want %g", c.Clock(), want)
		}
	}
}

func TestCountersTrackMessages(t *testing.T) {
	net := LatBwNetwork{CPUsPerNode: 2, IntraLat: 1e-6, IntraBw: 1e9, InterLat: 1e-5, InterBw: 1e8}
	comms := Run(4, net, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 10), nil) // intra (ranks 0,1 on node 0)
			c.Send(2, 0, make([]float64, 10), nil) // inter
		}
		c.Barrier()
		if c.Rank() == 1 || c.Rank() == 2 {
			c.Recv(0, 0)
		}
	})
	tc := comms[0].TC
	if tc.MsgsSent != 2 || tc.BytesSent != 160 {
		t.Errorf("sent %d msgs %d bytes", tc.MsgsSent, tc.BytesSent)
	}
	if tc.MsgsIntra != 1 || tc.BytesIntra != 80 {
		t.Errorf("intra %d msgs %d bytes", tc.MsgsIntra, tc.BytesIntra)
	}
	if tc.Barriers != 1 {
		t.Errorf("barriers %d", tc.Barriers)
	}
}

func TestRankPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("rank panic did not propagate")
		}
	}()
	Run(3, nil, func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
		// Other ranks block in a collective; the abort path must wake
		// them rather than deadlock.
		c.Barrier()
	})
}

func TestSendInvalidRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid destination did not panic")
		}
	}()
	Run(1, nil, func(c *Comm) {
		c.Send(5, 0, nil, nil)
	})
}

func TestDimsCreate(t *testing.T) {
	cases := []struct {
		size, d int
		want    []int
	}{
		{16, 2, []int{4, 4}},
		{12, 2, []int{4, 3}},
		{8, 3, []int{2, 2, 2}},
		{1, 2, []int{1, 1}},
		{7, 2, []int{7, 1}},
		{36, 2, []int{6, 6}},
		{24, 3, []int{4, 3, 2}},
	}
	for _, tc := range cases {
		got := DimsCreate(tc.size, tc.d)
		prod := 1
		for _, v := range got {
			prod *= v
		}
		if prod != tc.size {
			t.Errorf("DimsCreate(%d,%d) = %v, product %d", tc.size, tc.d, got, prod)
		}
		if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a] > got[b] }) {
			t.Errorf("DimsCreate(%d,%d) = %v not descending", tc.size, tc.d, got)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("DimsCreate(%d,%d) = %v, want %v", tc.size, tc.d, got, tc.want)
		}
	}
}

func TestLatBwNetworkClasses(t *testing.T) {
	n := LatBwNetwork{CPUsPerNode: 4, IntraLat: 1e-6, IntraBw: 1e9, InterLat: 1e-5, InterBw: 1e8}
	if !n.SameNode(0, 3) || n.SameNode(3, 4) {
		t.Error("node grouping wrong")
	}
	if n.MsgCost(0, 0, 1000) != 0 {
		t.Error("self message should be free")
	}
	intra := n.MsgCost(0, 1, 1000)
	inter := n.MsgCost(0, 4, 1000)
	if intra >= inter {
		t.Errorf("intra %g >= inter %g", intra, inter)
	}
	if math.Abs(intra-(1e-6+1e-6)) > 1e-18 {
		t.Errorf("intra cost %g", intra)
	}
	if n.BarrierCost(1) != 0 || n.BarrierCost(8) <= 0 {
		t.Error("barrier cost endpoints")
	}
	if n.CollectiveCost(1, 100) != 0 {
		t.Error("p=1 collective should be free")
	}
}

func TestZeroNetworkIsFree(t *testing.T) {
	var z ZeroNetwork
	if z.MsgCost(0, 1, 1e6) != 0 || z.BarrierCost(100) != 0 || z.CollectiveCost(10, 10) != 0 || !z.SameNode(0, 99) {
		t.Error("ZeroNetwork not free")
	}
}
