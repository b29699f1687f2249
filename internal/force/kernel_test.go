package force

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hybriddem/internal/cell"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
)

// The batched contact kernels must be the one-pass loops they replaced,
// bit for bit, on every list shape the batching could get wrong: empty,
// shorter than a batch, a batch and one either side, several batches
// and a remainder; lists with no contact and lists of nothing else;
// pairs on the edge of the contact test; periodic images; a damped
// Hertz law; a locked sink; and a range split the way the thread paths
// split it.

// edgeDiam is the contact distance of the edge-case systems, a power of
// two so that a pair set exactly edgeDiam apart along an axis has
// r² == diam² exactly.
const edgeDiam = 0.0625

// edgeSystem is n particles at random in a periodic unit box, moving,
// with five planted edge cases: particles 0 and 1 coincide (r² = 0), 2
// and 3 sit exactly edgeDiam apart along x (r² = diam²), 4 and 5 touch
// across the x = 0 face, 6 and 7 sit exactly half an edge apart along
// y (the minimum image is ambiguous, the kernel keeps +L/2), 8 gets a
// NaN coordinate once the list is built and 9 sits next to it. It
// returns the store, the links the cell builder finds at 1.5
// diameters, and links that name each planted pair.
func edgeSystem(d, n int, seed int64) (*particle.Store, *cell.List, []cell.Link, geom.Box) {
	box := geom.NewBox(d, 1, geom.Periodic)
	ps := particle.New(d, n)
	particle.FillUniformVel(ps, n, box, 0.5, 0, rand.New(rand.NewSource(seed)))
	set := func(p int, x ...float64) {
		for k := 0; k < d; k++ {
			ps.Pos[k][p] = x[k]
		}
	}
	set(0, 0.3, 0.3, 0.3)
	set(1, 0.3, 0.3, 0.3)
	set(2, 0.5, 0.5, 0.5)
	set(3, 0.5+edgeDiam, 0.5, 0.5)
	set(4, 0.01, 0.7, 0.2)
	set(5, 0.99, 0.7, 0.2)
	set(6, 0.25, 0, 0.8)
	set(7, 0.25, 0.5, 0.8)
	set(8, 0.1+edgeDiam/2, 0.9, 0.1)
	set(9, 0.1, 0.9, 0.1)
	rc := 1.5 * edgeDiam
	g := cell.NewGrid(d, geom.Vec{}, box.Len, rc, true)
	g.Bin(&ps.Pos, n, nil)
	list := g.BuildLinks(&ps.Pos, n, n, rc*rc, box, nil)
	ps.Pos[0][8] = math.NaN()
	planted := []cell.Link{{I: 0, J: 1}, {I: 2, J: 3}, {I: 4, J: 5}, {I: 6, J: 7}, {I: 8, J: 9}, {I: 9, J: 8}, {I: 3, J: 2}}
	return ps, list, planted, box
}

// splitByContact returns the links in contact and the links out of it,
// in list order.
func splitByContact(ps *particle.Store, links []cell.Link, box geom.Box, diam float64) (in, out []cell.Link) {
	for _, l := range links {
		r2 := box.Dist2At(&ps.Pos, l.I, l.J)
		if r2 >= diam*diam || r2 == 0 {
			out = append(out, l)
		} else {
			in = append(in, l)
		}
	}
	return in, out
}

// kernelRun is one pass of a kernel over a copy of the store: the
// forces it leaves, the energy and the contact count it returns.
type kernelRun struct {
	frc      geom.Coords
	epot     float64
	contacts int64
}

// runKernel walks ranges of links, in order, through the batched kernel
// (batched) or the one-pass reference, threading epot from range to
// range; range r runs at energy scale scales[r % len(scales)].
func runKernel(batched bool, sp Spring, ps *particle.Store, shared []bool, ranges [][]cell.Link, scales []float64, nCore int, box geom.Box) kernelRun {
	work := ps.Clone()
	work.ZeroForces()
	dst := &Sink{Frc: &work.Frc}
	if shared != nil {
		dst.Shared, dst.Locks = shared, make([]int32, work.Len())
	}
	var run kernelRun
	for r, links := range ranges {
		scale := scales[r%len(scales)]
		var c int64
		switch {
		case batched:
			run.epot, c = sp.AccumulateRange(dst, work, links, nCore, box, run.epot, scale)
		case work.D == 2:
			run.epot, c, _ = sp.onePass2(dst, work, links, nCore, box, run.epot, scale)
		default:
			run.epot, c, _ = sp.onePass3(dst, work, links, nCore, box, run.epot, scale)
		}
		run.contacts += c
	}
	run.frc = work.Frc
	return run
}

// sameBits reports the first difference between two runs, bit for bit.
func sameBits(a, b kernelRun, d, n int) error {
	if math.Float64bits(a.epot) != math.Float64bits(b.epot) {
		return fmt.Errorf("epot %v (%#x) vs %v (%#x)", a.epot, math.Float64bits(a.epot), b.epot, math.Float64bits(b.epot))
	}
	if a.contacts != b.contacts {
		return fmt.Errorf("contacts %d vs %d", a.contacts, b.contacts)
	}
	for k := 0; k < d; k++ {
		for p := 0; p < n; p++ {
			if x, y := a.frc[k][p], b.frc[k][p]; math.Float64bits(x) != math.Float64bits(y) {
				return fmt.Errorf("frc[%d][%d] %v vs %v", k, p, x, y)
			}
		}
	}
	return nil
}

func TestBatchedEqualsOnePass(t *testing.T) {
	const n = 1200
	springs := []struct {
		name string
		sp   Spring
	}{
		{"elastic", Spring{Diameter: edgeDiam, K: 40}},
		{"damped", Spring{Diameter: edgeDiam, K: 40, Damp: 0.5}},
		{"hertz-damped", Spring{Diameter: edgeDiam, K: 40, Damp: 0.2, Hertz: true}},
	}
	for _, d := range []int{2, 3} {
		ps, list, planted, box := edgeSystem(d, n, int64(5+d))
		in, out := splitByContact(ps, list.Links, box, edgeDiam)
		if len(in) < 2*batch+3 || len(out) < 2*batch+3 {
			t.Fatalf("d=%d: %d links in contact, %d out; want %d of each", d, len(in), len(out), 2*batch+3)
		}
		// The planted pairs at the front of the list, straddling the
		// first batch boundary, and at its end.
		mixed := append(append([]cell.Link{}, planted...), list.Links[:batch-4]...)
		mixed = append(append(mixed, planted...), list.Links[batch:3*batch]...)
		mixed = append(mixed, planted...)
		lists := map[string][]cell.Link{"mixed": mixed}
		for _, m := range []int{0, 1, batch - 1, batch, batch + 1, 2*batch + 3} {
			lists[fmt.Sprintf("any/%d", m)] = list.Links[:m]
			lists[fmt.Sprintf("none/%d", m)] = out[:m]
			lists[fmt.Sprintf("all/%d", m)] = in[:m]
		}
		mask := make([]bool, n)
		rng := rand.New(rand.NewSource(int64(d)))
		for p := range mask {
			mask[p] = rng.Intn(3) == 0
		}
		for name, links := range lists {
			for _, sc := range springs {
				for _, shared := range [][]bool{nil, mask} {
					for _, nCore := range []int{n, n - 400} {
						t.Run(fmt.Sprintf("d%d/%s/%s/locked=%v/nCore=%d", d, name, sc.name, shared != nil, nCore), func(t *testing.T) {
							ranges := [][]cell.Link{links}
							want := runKernel(false, sc.sp, ps, shared, ranges, []float64{1}, nCore, box)
							got := runKernel(true, sc.sp, ps, shared, ranges, []float64{1}, nCore, box)
							if err := sameBits(got, want, d, n); err != nil {
								t.Fatal(err)
							}
						})
					}
				}
			}
		}
		// The planted pairs must be what they claim: 0–1, 2–3 and 6–7
		// out of contact, 4–5 in contact through the image, 8–9 and 9–8
		// spreading NaN.
		got := runKernel(true, springs[0].sp, ps, nil, [][]cell.Link{planted}, []float64{1}, n, box)
		if got.contacts != 3 {
			t.Errorf("d=%d: planted pairs give %d contacts, want 3 (4–5, 8–9, 9–8)", d, got.contacts)
		}
		if got.frc[0][4] == 0 || !math.IsNaN(got.frc[0][9]) || !math.IsNaN(got.epot) {
			t.Errorf("d=%d: image pair force %v, NaN pair force %v, epot %v", d, got.frc[0][4], got.frc[0][9], got.epot)
		}
		for _, p := range []int{0, 1, 2, 3, 6, 7} {
			if got.frc[0][p] != 0 {
				t.Errorf("d=%d: particle %d of a pair at r² = 0 or diam² has force %v", d, p, got.frc[0][p])
			}
		}
	}
}

// TestBatchedRangeSplit: the thread paths walk a chunk's core links at
// full energy and its halo links at half, threading one running epot
// through both calls; a split that falls inside a batch must give the
// one-pass loop's bits.
func TestBatchedRangeSplit(t *testing.T) {
	const n = 1200
	sp := Spring{Diameter: edgeDiam, K: 40, Damp: 0.3}
	for _, d := range []int{2, 3} {
		ps, list, _, box := edgeSystem(d, n, int64(11+d))
		links := list.Links
		for _, mid := range []int{1, batch - 3, batch + 5, 3*batch + 7, len(links) - 2} {
			if mid%batch == 0 || mid >= len(links) {
				t.Fatalf("split %d of %d links", mid, len(links))
			}
			mask := make([]bool, n)
			for p := 0; p < n; p += 2 {
				mask[p] = true
			}
			for _, shared := range [][]bool{nil, mask} {
				ranges := [][]cell.Link{links[:mid], links[mid:]}
				want := runKernel(false, sp, ps, shared, ranges, []float64{1, 0.5}, n-300, box)
				got := runKernel(true, sp, ps, shared, ranges, []float64{1, 0.5}, n-300, box)
				if err := sameBits(got, want, d, n); err != nil {
					t.Fatalf("d=%d split at %d, locked=%v: %v", d, mid, shared != nil, err)
				}
			}
		}
	}
}

// TestInContactIsTheContactTest pins the branch-free test to
// !(r2 >= diam2 || r2 == 0) on every class of float64: both zeros,
// subnormals, values either side of diam², infinities, negatives and
// NaNs of either sign and any payload.
func TestInContactIsTheContactTest(t *testing.T) {
	const diam2 = edgeDiam * edgeDiam
	values := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		diam2, math.Nextafter(diam2, 0), math.Nextafter(diam2, 1), diam2 / 2, 2 * diam2,
		1, -1, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff0000000000001),
		math.Float64frombits(0xfff0000000000001), math.Float64frombits(0x7fffffffffffffff),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		values = append(values, math.Float64frombits(rng.Uint64()))
	}
	for _, r2 := range values {
		want := 0
		if !(r2 >= diam2 || r2 == 0) {
			want = 1
		}
		if got := inContact(r2, diam2); got != want {
			t.Errorf("inContact(%v [%#x]) = %d, want %d", r2, math.Float64bits(r2), got, want)
		}
	}
}
