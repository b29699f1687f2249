package mp

// Race-focused stress tests: every rank in Run is a real goroutine,
// so these exist chiefly for `go test -race`. They hammer the mailbox
// (mixed tags, non-blocking overlap), the collective rendezvous, and
// several worlds running concurrently in one process, the shape the
// hybrid driver uses.

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestRaceMixedTagTraffic(t *testing.T) {
	// Each rank floods every other rank with messages on several
	// tags in a seeded-random order, then drains them tag by tag.
	// Per-(src,tag) FIFO ordering must survive the interleaving.
	const P, tags, msgs = 6, 4, 8
	Run(P, nil, func(c *Comm) {
		rng := rand.New(rand.NewSource(int64(100 + c.Rank())))
		// Interleave the (dst,tag) streams randomly while keeping
		// each individual stream in sequence order so per-(src,tag)
		// FIFO is checkable on the receive side.
		type stream struct{ dst, tag, next int }
		var streams []*stream
		for dst := 0; dst < P; dst++ {
			if dst == c.Rank() {
				continue
			}
			for tag := 0; tag < tags; tag++ {
				streams = append(streams, &stream{dst: dst, tag: tag})
			}
		}
		for len(streams) > 0 {
			k := rng.Intn(len(streams))
			s := streams[k]
			c.Send(s.dst, s.tag, []float64{float64(s.next)}, []int32{int32(c.Rank())})
			s.next++
			if s.next == msgs {
				streams[k] = streams[len(streams)-1]
				streams = streams[:len(streams)-1]
			}
		}
		for src := 0; src < P; src++ {
			if src == c.Rank() {
				continue
			}
			for tag := 0; tag < tags; tag++ {
				for seq := 0; seq < msgs; seq++ {
					f, ints := c.Recv(src, tag)
					if int(f[0]) != seq || int(ints[0]) != src {
						panic("FIFO violated under mixed-tag load")
					}
				}
			}
		}
	})
}

func TestRaceNonblockingOverlapsCollectives(t *testing.T) {
	// Outstanding ISend/IRecv pairs bracket an Allreduce and a
	// Barrier; the requests complete afterwards. This is the halo
	// exchange pattern overlapped with the energy reduction.
	const P, reps = 5, 10
	Run(P, nil, func(c *Comm) {
		right := (c.Rank() + 1) % P
		left := (c.Rank() + P - 1) % P
		for r := 0; r < reps; r++ {
			rq := c.IRecv(left, r)
			sq := c.ISend(right, r, []float64{float64(c.Rank()*1000 + r)}, nil)
			sum := c.AllreduceScalar(float64(c.Rank()), Sum)
			if int(sum) != P*(P-1)/2 {
				panic("allreduce wrong under overlap")
			}
			c.Barrier()
			f, _ := rq.Wait()
			if int(f[0]) != left*1000+r {
				panic("nonblocking payload wrong")
			}
			sq.Wait()
		}
	})
}

func TestRaceSplitPhaseExchangeWithSplitCollectives(t *testing.T) {
	// The split-phase step shape: post receives and eager sends, spawn
	// a worker goroutine that computes while the master drains the
	// in-flight requests (the hybrid driver's StartRegion/drain split),
	// then post TWO back-to-back in-place allreduces and wait them in
	// order. Request and collective handles are pooled and released, so
	// this also hammers the world's free lists under -race.
	const P, reps = 6, 12
	Run(P, nil, func(c *Comm) {
		right := (c.Rank() + 1) % P
		left := (c.Rank() + P - 1) % P
		energy := make([]float64, 2)
		vote := make([]float64, 1)
		for r := 0; r < reps; r++ {
			rq := c.IRecv(left, r)
			c.ISend(right, r, []float64{float64(c.Rank()*1000 + r)}, nil).Release()

			// Concurrent "core compute" on a worker while the master
			// drains, mirroring the overlapped force region.
			done := make(chan float64)
			go func() {
				s := 0.0
				for i := 0; i < 1000; i++ {
					s += float64(i % 7)
				}
				done <- s
			}()
			f, _ := rq.Wait()
			if int(f[0]) != left*1000+r {
				panic("split-phase payload wrong")
			}
			rq.Release()
			<-done

			energy[0], energy[1] = float64(c.Rank()), float64(r)
			eReq := c.IAllreduceInPlace(energy, Sum)
			vote[0] = float64(c.Rank() * (r + 1))
			vReq := c.IAllreduceInPlace(vote, Max)
			eReq.Wait()
			if int(energy[0]) != P*(P-1)/2 || int(energy[1]) != P*r {
				panic("split energy allreduce wrong")
			}
			vReq.Wait()
			if int(vote[0]) != (P-1)*(r+1) {
				panic("split vote allreduce wrong")
			}
		}
	})
}

func TestRaceConcurrentWorlds(t *testing.T) {
	// Several independent worlds run at once in one process; their
	// mailboxes and collectives must not interfere.
	const worlds, P = 4, 4
	var wg sync.WaitGroup
	for w := 0; w < worlds; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			Run(P, nil, func(c *Comm) {
				base := float64((w + 1) * 100)
				v := []float64{base + float64(c.Rank())}
				c.AllreduceInPlace(v, Sum)
				want := float64(P)*base + float64(P*(P-1)/2)
				if v[0] != want {
					panic("cross-world interference in allreduce")
				}
				// Rank 0's value reaches every rank through a posted
				// Max that stays open across a barrier.
				root := []float64{math.Inf(-1)}
				if c.Rank() == 0 {
					root[0] = base
				}
				req := c.IAllreduceInPlace(root, Max)
				c.Barrier()
				req.Wait()
				if root[0] != base {
					panic("cross-world interference in the posted allreduce")
				}
			})
		}(w)
	}
	wg.Wait()
}
