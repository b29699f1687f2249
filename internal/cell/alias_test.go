package cell

import (
	"testing"

	"hybriddem/internal/geom"
)

// buildSplitList constructs a tiny deterministic system with one
// core-core link and one core-halo link.
func buildSplitList(buf *ListBuffer) (*Grid, *List) {
	box := geom.NewBox(2, 1.0, geom.Reflecting)
	pos := geom.CoordsFromVecs([]geom.Vec{
		{0.10, 0.10}, // core
		{0.15, 0.10}, // core: links to 0
		{0.60, 0.60}, // core
		{0.65, 0.60}, // halo: links to 2
	}, 2)
	const nCore = 3
	rc := 0.12
	g := NewGrid(2, geom.Vec{}, box.Len, rc, false)
	g.Bin(&pos, pos.Len(), nil)
	return g, g.BuildLinksInto(buf, &pos, pos.Len(), nCore, rc*rc, box, nil)
}

// TestCoreLinksAppendCannotClobberHalo is the regression test for the
// core/halo aliasing bug: CoreLinks used to return Links[:NCore] with
// the full backing capacity, so a caller appending through the
// returned slice silently overwrote the first halo link. The capacity
// must be clipped at NCore.
func TestCoreLinksAppendCannotClobberHalo(t *testing.T) {
	var buf ListBuffer
	_, list := buildSplitList(&buf)
	if list.NCore != 1 || len(list.Links) != 2 {
		t.Fatalf("unexpected list shape: NCore=%d len=%d", list.NCore, len(list.Links))
	}
	halo0 := list.HaloLinks()[0]

	cl := list.CoreLinks()
	cl = append(cl, Link{I: 99, J: 99})
	_ = cl

	if got := list.HaloLinks()[0]; got != halo0 {
		t.Fatalf("append through CoreLinks clobbered halo link: %v -> %v", halo0, got)
	}
}

// TestListBackingDistinctFromStaging pins the fix for the second half
// of the same bug: the returned list used to be built with
// append(core, halo...), aliasing a staging area, so the next rebuild's
// staging writes corrupted a list a caller still held. Core links are
// now emitted into the list itself; the halo links are still staged,
// and the list must own backing distinct from that staging buffer.
func TestListBackingDistinctFromStaging(t *testing.T) {
	var buf ListBuffer
	_, list := buildSplitList(&buf)
	if len(list.Links) == list.NCore || len(buf.halo) == 0 {
		t.Fatal("the split list has no halo link to stage")
	}
	if &list.Links[list.NCore] == &buf.halo[0] {
		t.Fatal("list backing aliases the halo staging buffer")
	}
}
