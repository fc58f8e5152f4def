package core

import (
	"encoding/binary"
	"flag"
	"os"
	"slices"
	"testing"

	"chime/internal/dmsim"
	"chime/internal/nodelayout"
	"chime/internal/offroute"
)

// TestMain turns the use-after-put guard on for the whole suite: every
// recycled image is scribbled over, so a decoded value read after its
// image went back to the pool reads poison (and, under -race, races with
// the next owner) instead of bytes that usually still look right. A
// -bench run leaves it off: the scribble is not part of what the
// benchmarks measure.
func TestMain(m *testing.M) {
	flag.Parse()
	poisonRecycled = flag.Lookup("test.bench").Value.String() == ""
	os.Exit(m.Run())
}

// gaddr is a test helper constructing remote addresses tersely.
func gaddr(mn uint8, off uint64) dmsim.GAddr { return dmsim.GAddr{MN: mn, Off: off} }

// The whole-cell copying codec the in-place accessors replaced; tests
// keep it as the reference. It copies through nodelayout's sub-range
// helpers, which that package pins against its own whole-cell reference.
func writeCellContent(img []byte, c cell, content []byte) {
	nodelayout.WriteCellContentAt(img, c, 0, content)
}

func readCellContent(img []byte, c cell, dst []byte) []byte {
	dst = slices.Grow(dst[:0], c.Content)[:c.Content]
	nodelayout.ReadCellContentAt(img, c, 0, dst)
	return dst
}

// refEntry decodes slot i the way leafImage.entry did before it went in
// place: gather the whole cell into a fresh buffer, slice the copy.
func refEntry(im *leafImage, i int) leafEntry {
	c := im.lay.entryCells[i]
	content := readCellContent(im.buf, c, make([]byte, 0, c.Content))
	return leafEntry{
		occupied: content[0]&entryFlagOccupied != 0,
		hopBM:    binary.LittleEndian.Uint16(content[1:3]),
		key:      binary.LittleEndian.Uint64(content[3:11]),
		value:    content[3+im.lay.keySize : 3+im.lay.keySize+im.lay.valSize],
	}
}

// scanWalk runs the scan's one walk of a whole leaf, inRangeIfConsistent,
// for the given start and returns its verdict, after checking the slots
// it collected against the copying decode: every occupied slot with a
// key >= start, in slot order.
func scanWalk(t *testing.T, im *leafImage, start uint64) bool {
	t.Helper()
	got, ok := im.inRangeIfConsistent(nil, start)
	var want []offroute.ScanSlot
	for i := 0; i < im.lay.span; i++ {
		if e := refEntry(im, i); e.occupied && e.key >= start {
			want = append(want, offroute.ScanSlot{Key: e.key, Idx: i})
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("inRangeIfConsistent(start %#x) collected %v, the copying decode %v", start, got, want)
	}
	return ok
}

// refHopBitmapsConsistent is the per-home whole-leaf check the one-pass
// inRangeIfConsistent replaced: span reconstructions of h decodes each.
func refHopBitmapsConsistent(im *leafImage) bool {
	for home := 0; home < im.lay.span; home++ {
		var bm uint16
		for d := 0; d < im.lay.h; d++ {
			e := refEntry(im, (home+d)%im.lay.span)
			if e.occupied && im.lay.homeOf(e.key) == home {
				bm |= 1 << uint(d)
			}
		}
		if refEntry(im, home).hopBM != bm {
			return false
		}
	}
	return true
}

// testNode is a cached node with the given header and no image, for
// tests of the cache's own bookkeeping.
func testNode(h internalHeader) *internalImage { return &internalImage{internalHeader: h} }
