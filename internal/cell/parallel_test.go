package cell

import (
	"reflect"
	"testing"

	"hybriddem/internal/geom"
	"hybriddem/internal/trace"
)

// fakePool runs the Pool contract on plain goroutines.
type fakePool struct{ t int }

func (p fakePool) Threads() int { return p.t }
func (p fakePool) ParallelFor(n int, body func(thread, lo, hi int)) {
	done := make(chan struct{}, p.t)
	for t := 0; t < p.t; t++ {
		go func(t int) {
			lo := t * n / p.t
			hi := (t + 1) * n / p.t
			body(t, lo, hi)
			done <- struct{}{}
		}(t)
	}
	for t := 0; t < p.t; t++ {
		<-done
	}
}

// stepPool runs the Pool contract one chunk after the other on the
// calling goroutine: the parallel builder's arithmetic without its
// concurrency, and without allocating.
type stepPool struct{ t int }

func (p stepPool) Threads() int { return p.t }
func (p stepPool) ParallelFor(n int, body func(thread, lo, hi int)) {
	for t := 0; t < p.t; t++ {
		body(t, t*n/p.t, (t+1)*n/p.t)
	}
}

// TestBinParallelMatchesSerial: the parallel binning must reproduce
// the serial counting sort exactly — same cell assignment and the
// same cell-ordered index list.
func TestBinParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{0, 1, 37, 500, 2000} {
		for _, T := range []int{1, 2, 4, 7} {
			box := geom.NewBox(2, 1.0, geom.Periodic)
			pos := randomPositions(n, 2, box, int64(n+T))
			ser := NewGrid(2, geom.Vec{}, box.Len, 0.07, true)
			ser.Bin(&pos, n, nil)
			par := NewGrid(2, geom.Vec{}, box.Len, 0.07, true)
			var tc trace.Counters
			par.BinParallel(&pos, n, fakePool{T}, &tc)
			if !reflect.DeepEqual(ser.Order(), par.Order()) {
				t.Fatalf("n=%d T=%d: parallel binning diverges", n, T)
			}
			if n > 0 && tc.CellBinOps != int64(n) {
				t.Errorf("n=%d T=%d: bin counter %d", n, T, tc.CellBinOps)
			}
		}
	}
}

// TestBuildLinksParallelMatchesSerial: identical link lists including
// order and the core/halo split.
func TestBuildLinksParallelMatchesSerial(t *testing.T) {
	for _, d := range []int{2, 3} {
		for _, T := range []int{1, 3, 6} {
			box := geom.NewBox(d, 1.0, geom.Periodic)
			pos := randomPositions(400, d, box, int64(d*10+T))
			rc := 0.12
			nCore := 350 // treat the tail as halo copies
			g := NewGrid(d, geom.Vec{}, box.Len, rc, true)
			g.Bin(&pos, pos.Len(), nil)
			ser := g.BuildLinks(&pos, pos.Len(), nCore, rc*rc, box, nil)
			par := g.BuildLinksParallel(&pos, pos.Len(), nCore, rc*rc, box, fakePool{T}, nil)
			if ser.NCore != par.NCore {
				t.Fatalf("d=%d T=%d: core split %d vs %d", d, T, par.NCore, ser.NCore)
			}
			if !reflect.DeepEqual(ser.Links, par.Links) {
				t.Fatalf("d=%d T=%d: link lists differ (%d vs %d links)", d, T, len(par.Links), len(ser.Links))
			}
		}
	}
}

// TestBuildLinksParallelDegenerateFallsBack: tiny periodic grids use
// the always-correct serial all-pairs path.
func TestBuildLinksParallelDegenerateFallsBack(t *testing.T) {
	box := geom.NewBox(2, 1.0, geom.Periodic)
	pos := randomPositions(50, 2, box, 5)
	g := NewGrid(2, geom.Vec{}, box.Len, 0.4, true)
	if !g.Degenerate() {
		t.Fatal("expected degenerate grid")
	}
	g.Bin(&pos, pos.Len(), nil)
	ser := g.BuildLinks(&pos, pos.Len(), pos.Len(), 0.16, box, nil)
	par := g.BuildLinksParallel(&pos, pos.Len(), pos.Len(), 0.16, box, fakePool{4}, nil)
	if !reflect.DeepEqual(ser.Links, par.Links) {
		t.Error("degenerate fallback diverges")
	}
}
