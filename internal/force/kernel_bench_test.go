package force

import (
	"math"
	"math/rand"
	"testing"

	"hybriddem/internal/cell"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
)

// kernelSystem is the root package's BenchmarkForceSerial3D system,
// built without internal/core: n particles at the paper's density
// (core.Default's box, edge 5·(n/10⁶)^(1/3) in 3-D and 50·(n/10⁶)^(1/2)
// in 2-D) and spring, uniform at rest, in cell order, linked at 1.5
// diameters.
func kernelSystem(tb testing.TB, d, n int) (*particle.Store, *cell.List, geom.Box, Spring) {
	tb.Helper()
	edge := 50 * math.Sqrt(float64(n)/1e6)
	if d == 3 {
		edge = 5 * math.Cbrt(float64(n)/1e6)
	}
	box := geom.NewBox(d, edge, geom.Periodic)
	sp := Spring{Diameter: 0.05, K: 500}
	ps := particle.New(d, n)
	particle.FillUniform(ps, n, box, 0, rand.New(rand.NewSource(1)))
	rc := 1.5 * sp.Diameter
	g := cell.NewGrid(d, geom.Vec{}, box.Len, rc, true)
	g.Bin(&ps.Pos, n, nil)
	ps.Permute(g.Order())
	g.Bin(&ps.Pos, n, nil)
	return ps, g.BuildLinks(&ps.Pos, n, n, rc*rc, box, nil), box, sp
}

// viewCut2 is the squared distance the engine prunes kernelSystem's
// list at: Diameter + 2s with s a quarter of the skin (rc - Diameter)/2,
// and its rounding margin (core's Config.viewCut2).
func viewCut2(sp Spring) float64 {
	s := (1.5*sp.Diameter - sp.Diameter) / 2 / 4
	cut := sp.Diameter + 2*s + s/(1<<20)
	return cut * cut
}

// BenchmarkPairKernel3D runs the batched 3-D kernel and the one-pass
// loop it replaced over the same list, into a lock-free sink, the
// batched kernel over the list's contact-range view (Pruned), and the
// prune pass that writes the view (Prune); every row reports ns per
// link of the list. CI holds Batched to 0.8x OnePass, Pruned to 0.75x
// Batched, Prune to 1.0x Batched, all at 0 allocs/op, and the link
// build to 4x OnePass (bench-and-alloc-gate).
func BenchmarkPairKernel3D(b *testing.B) {
	ps, list, box, sp := kernelSystem(b, 3, 50_000)
	dst := &Sink{Frc: &ps.Frc}
	n := ps.Len()
	cut2 := viewCut2(sp)
	var view cell.View
	view.Prune(list, &ps.Pos, box, cut2)
	for _, k := range []struct {
		name string
		run  func() int64
	}{
		{"OnePass", func() int64 { _, c, _ := sp.onePass3(dst, ps, list.Links, n, box, 0, 1); return c }},
		{"Batched", func() int64 { _, c := sp.accumulate3(dst, ps, list.Links, n, box, 0, 1); return c }},
		{"Pruned", func() int64 { _, c := sp.accumulate3(dst, ps, view.Links, n, box, 0, 1); return c }},
		{"Prune", func() int64 { view.Prune(list, &ps.Pos, box, cut2); return 0 }},
	} {
		b.Run(k.name, func(b *testing.B) {
			var contacts int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ps.ZeroForces()
				contacts += k.run()
			}
			links := float64(b.N * len(list.Links))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/links, "ns/link")
			b.ReportMetric(float64(contacts)/links, "contacts/link")
			b.ReportMetric(float64(len(view.Links))/float64(len(list.Links)), "view/list")
		})
	}
}
