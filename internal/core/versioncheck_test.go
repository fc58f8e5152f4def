package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// refCoveredCells is checkRanges's choice of cells as first written:
// every cell tested against every range. It stays as the reference
// cellsIn is pinned against.
func refCoveredCells(l *leafLayout, ranges []byteRange) []cell {
	var dst []cell
	for _, c := range l.allCells {
		for _, r := range ranges {
			if c.Off >= r.Off && c.End() <= r.End {
				dst = append(dst, c)
				break
			}
		}
	}
	return dst
}

// versionCheckLayouts are leaves of one-line entry cells (the default),
// of two-line ones, and of 66-line ones (4 KiB inline values).
func versionCheckLayouts() []*leafLayout {
	var lays []*leafLayout
	for _, valSize := range []int{8, 100, 4096} {
		o := DefaultOptions()
		o.ValueSize = valSize
		lays = append(lays, newLeafLayout(o))
	}
	return lays
}

// tearWindow damages up to three version bytes the ways a racing writer
// can — a node write that reached some cells, an entry write that
// reached some lines of a big cell, any byte at all — mostly among the
// cells the window covers, now and then anywhere in the leaf. It
// returns what to call to put the bytes back.
func tearWindow(im *leafImage, covered []cell, r *rand.Rand) (restore func()) {
	type saved struct {
		off int
		b   byte
	}
	var undo []saved
	for n := r.Intn(4); n > 0; n-- {
		c := im.lay.allCells[r.Intn(len(im.lay.allCells))]
		if len(covered) > 0 && r.Intn(4) != 0 {
			c = covered[r.Intn(len(covered))]
		}
		offs := c.VersionOffsets(nil)
		o := offs[r.Intn(len(offs))]
		undo = append(undo, saved{o, im.buf[o]})
		switch r.Intn(3) {
		case 0:
			for _, o := range offs {
				undo = append(undo, saved{o, im.buf[o]})
			}
			bumpNV(im.buf, []cell{c})
		case 1:
			im.buf[o] = packVer(verNV(im.buf[o]), verEV(im.buf[o])+1)
		default:
			im.buf[o] = byte(r.Intn(256))
		}
	}
	return func() {
		for i := len(undo) - 1; i >= 0; i-- {
			im.buf[undo[i].off] = undo[i].b
		}
	}
}

// checkRangesAgrees fails t unless cellsIn picks exactly the reference's
// cells for ranges and checkRanges gives the verdict of checkVersions
// over them, on im as it is and torn.
func checkRangesAgrees(t *testing.T, im *leafImage, ranges []byteRange, r *rand.Rand) (torn bool) {
	t.Helper()
	want := refCoveredCells(im.lay, ranges)
	picked := map[int]bool{}
	for _, rg := range ranges {
		for _, c := range im.lay.cellsIn(rg) {
			picked[c.Off] = true
		}
	}
	if len(picked) != len(want) {
		t.Fatalf("ranges %v: cellsIn picks %d cells, the reference %d", ranges, len(picked), len(want))
	}
	for _, c := range want {
		if !picked[c.Off] {
			t.Fatalf("ranges %v: cellsIn misses the cell at %d", ranges, c.Off)
		}
	}
	restore := tearWindow(im, want, r)
	defer restore()
	got, ref := im.checkRanges(ranges), checkVersions(im.buf, 0, want)
	if got != ref {
		t.Fatalf("ranges %v: checkRanges says %v, the reference %v", ranges, got, ref)
	}
	return ref != nil
}

// TestCheckRangesVsReference pins checkRanges — the binary-searched
// cells of each range, all checked against one NV — against
// checkVersions over refCoveredCells (nodelayout pins checkVersions
// against the per-cell loop): on every (home, count) window
// neighborhoodSegments yields, with and without its replica, and on
// random ranges that start and end anywhere, over clean and torn
// version bytes, for one-line, two-line and 66-line entry cells.
func TestCheckRangesVsReference(t *testing.T) {
	for _, lay := range versionCheckLayouts() {
		t.Run(fmt.Sprintf("val%d", lay.valSize), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(lay.valSize)))
			im := newLeafImage(lay)
			clear(im.buf)
			for i := r.Intn(16); i > 0; i-- {
				bumpNV(im.buf, lay.allCells)
			}
			verdicts := map[bool]int{}
			var segs []byteRange
			for home := 0; home < lay.span; home++ {
				for count := 1; count <= lay.span; count++ {
					for _, meta := range []bool{false, true} {
						segs = lay.neighborhoodSegments(segs[:0], home, count, meta)
						verdicts[checkRangesAgrees(t, im, segs, r)]++
					}
				}
			}
			for i := 0; i < 2000; i++ {
				segs = segs[:0]
				for n := 1 + r.Intn(3); n > 0; n-- {
					off := r.Intn(lay.size)
					segs = append(segs, byteRange{Off: off, End: off + r.Intn(lay.size-off+1)})
				}
				verdicts[checkRangesAgrees(t, im, segs, r)]++
			}
			if verdicts[true] < 100 || verdicts[false] < 100 {
				t.Fatalf("verdicts %v: the tears no longer exercise both", verdicts)
			}
		})
	}
}

// TestWholeLeafCheckAllocatesNothing: checking a whole leaf of 4 KiB
// inline values — 64 entry cells of 66 lines — or a neighborhood of it
// allocates nothing. Listing each cell's version offsets cost three
// allocations per such cell.
func TestWholeLeafCheckAllocatesNothing(t *testing.T) {
	o := DefaultOptions()
	o.ValueSize = 4096
	lay := newLeafLayout(o)
	if c := lay.entryCells[0]; !c.Big || c.Lines != 66 {
		t.Fatalf("4 KiB entry cell %+v, want 66 lines", c)
	}
	im := newLeafImage(lay)
	clear(im.buf)
	bumpNV(im.buf, lay.allCells)
	segs := lay.neighborhoodSegments(nil, lay.span-3, lay.h, true)
	if avg := testing.AllocsPerRun(50, func() {
		if checkVersions(im.buf, 0, lay.allCells) != nil || im.checkRanges(segs) != nil {
			t.Fatal("a consistent leaf fails its version check")
		}
	}); avg != 0 {
		t.Fatalf("a whole-leaf and a neighborhood check allocate %.1f objects, want 0", avg)
	}
}
