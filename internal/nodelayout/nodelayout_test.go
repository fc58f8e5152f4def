package nodelayout

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// WriteCellContent and ReadCellContent are the whole-cell copying codec
// every index once decoded and encoded through. The indexes read and
// write cells where they lie now, through ContentAt and the *At helpers,
// and this pair stays as the reference those are pinned against
// (TestContentAtHelpersMatchWholeCellCodec); other packages' reference
// codecs copy whole cells through the pinned helpers at offset 0.

// WriteCellContent scatters content bytes into the image around the
// cell's version bytes. len(content) must equal c.Content.
func WriteCellContent(img []byte, c Cell, content []byte) {
	if len(content) != c.Content {
		panic(fmt.Sprintf("nodelayout: cell content %d bytes, cell holds %d", len(content), c.Content))
	}
	if !c.Big {
		copy(img[c.Off+1:], content)
		return
	}
	rem := content
	for l := 0; l < c.Lines && len(rem) > 0; l++ {
		n := LineSize - 1
		if n > len(rem) {
			n = len(rem)
		}
		copy(img[c.Off+l*LineSize+1:], rem[:n])
		rem = rem[n:]
	}
}

// ReadCellContent gathers a cell's content bytes from the image.
func ReadCellContent(img []byte, c Cell, dst []byte) []byte {
	dst = dst[:0]
	if !c.Big {
		return append(dst, img[c.Off+1:c.Off+1+c.Content]...)
	}
	rem := c.Content
	for l := 0; l < c.Lines && rem > 0; l++ {
		n := LineSize - 1
		if n > rem {
			n = rem
		}
		base := c.Off + l*LineSize + 1
		dst = append(dst, img[base:base+n]...)
		rem -= n
	}
	return dst
}

func TestPackVerRoundTrip(t *testing.T) {
	for nv := uint8(0); nv < 16; nv++ {
		for ev := uint8(0); ev < 16; ev++ {
			b := PackVer(nv, ev)
			if VerNV(b) != nv || VerEV(b) != ev {
				t.Fatalf("PackVer(%d,%d) -> (%d,%d)", nv, ev, VerNV(b), VerEV(b))
			}
		}
	}
}

func TestLayoutNeverCrossesLinesForSmallCells(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		contents := make([]int, n)
		for i := range contents {
			contents[i] = 1 + r.Intn(63)
		}
		cells, size := LayoutCells(r.Intn(4)*LineSize, contents)
		prevEnd := 0
		for i, c := range cells {
			if c.Big {
				return false
			}
			if c.Off%LineSize+c.Physical() > LineSize {
				t.Logf("seed %d: cell %d crosses line", seed, i)
				return false
			}
			if c.Off < prevEnd {
				return false
			}
			prevEnd = c.End()
		}
		return size >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBigCellGeometry(t *testing.T) {
	for _, content := range []int{64, 63*2 - 1, 63 * 2, 63*2 + 1, 1000} {
		cells, _ := LayoutCells(0, []int{content})
		c := cells[0]
		if !c.Big {
			t.Fatalf("content %d should be big", content)
		}
		wantLines := (content + LineSize - 2) / (LineSize - 1)
		if c.Lines != wantLines {
			t.Fatalf("content %d: %d lines, want %d", content, c.Lines, wantLines)
		}
		if c.Physical() != wantLines*LineSize {
			t.Fatalf("content %d: physical %d", content, c.Physical())
		}
	}
}

func TestContentRoundTripProperty(t *testing.T) {
	prop := func(seed int64, sz uint16) bool {
		size := int(sz)%500 + 1
		cells, total := LayoutCells(0, []int{size})
		img := make([]byte, total)
		r := rand.New(rand.NewSource(seed))
		content := make([]byte, size)
		r.Read(content)
		WriteCellContent(img, cells[0], content)
		return bytes.Equal(ReadCellContent(img, cells[0], nil), content)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVersionIsolationBetweenAdjacentCells(t *testing.T) {
	// Two small cells in the same line: bumping one's EV must not
	// disturb the other's content or version.
	cells, total := LayoutCells(0, []int{20, 20})
	img := make([]byte, total)
	WriteCellContent(img, cells[0], bytes.Repeat([]byte{1}, 20))
	WriteCellContent(img, cells[1], bytes.Repeat([]byte{2}, 20))
	BumpEV(img, cells[0])
	if VerEV(img[cells[1].Off]) != 0 {
		t.Fatal("EV bump leaked to neighbor")
	}
	if !bytes.Equal(ReadCellContent(img, cells[1], nil), bytes.Repeat([]byte{2}, 20)) {
		t.Fatal("neighbor content disturbed")
	}
}

func TestCheckVersionsAcceptsConsistentWindow(t *testing.T) {
	cells, total := LayoutCells(0, []int{30, 30, 200})
	img := make([]byte, total)
	for i := 0; i < 5; i++ {
		BumpNV(img, cells)
	}
	BumpEV(img, cells[1])
	if err := CheckVersions(img, 0, cells); err != nil {
		t.Fatalf("consistent image rejected: %v", err)
	}
}

func TestCheckVersionsRejectsMixedNV(t *testing.T) {
	cells, total := LayoutCells(0, []int{30, 30})
	img := make([]byte, total)
	BumpNV(img, cells[:1])
	if err := CheckVersions(img, 0, cells); err != ErrTornRead {
		t.Fatalf("mixed NV accepted: %v", err)
	}
}

func TestCheckVersionsRejectsIntraCellMix(t *testing.T) {
	cells, total := LayoutCells(0, []int{300})
	img := make([]byte, total)
	offs := cells[0].VersionOffsets(nil)
	if len(offs) < 2 {
		t.Fatal("big cell must have multiple version bytes")
	}
	img[offs[len(offs)-1]] = PackVer(0, 3)
	if err := CheckVersions(img, 0, cells); err != ErrTornRead {
		t.Fatalf("intra-cell mix accepted: %v", err)
	}
}

func TestNibbleWraparoundStaysConsistent(t *testing.T) {
	// 20 NV bumps wrap the 4-bit nibble; consistency must survive.
	cells, total := LayoutCells(0, []int{30, 200})
	img := make([]byte, total)
	for i := 0; i < 20; i++ {
		BumpNV(img, cells)
		if err := CheckVersions(img, 0, cells); err != nil {
			t.Fatalf("bump %d: %v", i, err)
		}
	}
	if VerNV(img[cells[0].Off]) != 20%16 {
		t.Fatalf("NV = %d, want 4", VerNV(img[cells[0].Off]))
	}
}

func TestWriteCellContentPanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cells, total := LayoutCells(0, []int{10})
	WriteCellContent(make([]byte, total), cells[0], make([]byte, 11))
}

// TestContentAtHelpersMatchWholeCellCodec pins the in-place sub-range
// accessors against the whole-cell gather/scatter for small and big
// cells: any [off, off+n) range read, written or zeroed in place leaves
// exactly what the whole-cell codec would.
func TestContentAtHelpersMatchWholeCellCodec(t *testing.T) {
	prop := func(seed int64, sz uint16) bool {
		r := rand.New(rand.NewSource(seed))
		size := int(sz)%400 + 1
		cells, total := LayoutCells(LineSize, []int{7, size})
		c := cells[1]
		img := make([]byte, LineSize+total)
		r.Read(img)
		content := ReadCellContent(img, c, nil)

		off := r.Intn(size)
		n := r.Intn(size - off + 1)

		got := make([]byte, n)
		ReadCellContentAt(img, c, off, got)
		if !bytes.Equal(got, content[off:off+n]) {
			t.Logf("seed %d size %d: read [%d,%d) differs", seed, size, off, off+n)
			return false
		}
		if n > 0 {
			if o, run := c.ContentAt(off); run < 1 || img[o] != content[off] {
				t.Logf("seed %d size %d: ContentAt(%d) = %d,%d", seed, size, off, o, run)
				return false
			}
		}

		want := append([]byte(nil), img...)
		src := make([]byte, n)
		r.Read(src)
		copy(content[off:], src)
		WriteCellContent(want, c, content)
		WriteCellContentAt(img, c, off, src)
		if !bytes.Equal(img, want) {
			t.Logf("seed %d size %d: write [%d,%d) differs", seed, size, off, off+n)
			return false
		}

		clear(content[off : off+n])
		WriteCellContent(want, c, content)
		ZeroCellContentAt(img, c, off, n)
		return bytes.Equal(img, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestContentAtPanicsOutsideTheCell(t *testing.T) {
	cells, _ := LayoutCells(0, []int{10, 100})
	for _, c := range cells {
		for _, off := range []int{-1, c.Content} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("ContentAt(%d) on a %d-byte cell did not panic", off, c.Content)
					}
				}()
				c.ContentAt(off)
			}()
		}
	}
}

func TestSplitPoint(t *testing.T) {
	keys := []uint64{10, 20, 30, 40, 50, 60, 70, 80} // n/2 = 4, 3n/4 = 6
	for _, tc := range []struct {
		name     string
		keys     []uint64
		pending  uint64
		prev     uint64
		havePrev bool
		at       int
		run      bool
	}{
		{"above every key, nothing placed yet", keys, 90, 0, false, 6, true},
		{"above every key, directly after prev", keys, 90, 80, true, 6, true},
		{"above every key, prev in the node further down", keys, 90, 30, true, 6, true},
		{"above every key, prev in another node", keys, 90, 5, true, 4, false},
		{"above every key, prev between two keys", keys, 90, 45, true, 4, false},
		{"directly after prev, others' keys above: at the rank", keys, 55, 50, true, 5, true},
		{"directly after prev, rank above three quarters", keys, 75, 70, true, 6, true},
		{"directly after prev, rank below the median", keys, 25, 20, true, 4, true},
		{"after prev but not directly", keys, 55, 30, true, 4, false},
		{"below prev", keys, 25, 50, true, 4, false},
		{"below every key", keys, 5, 80, true, 4, false},
		{"in the middle, nothing placed yet", keys, 55, 0, false, 4, false},
		{"two keys, a run", []uint64{1, 2}, 3, 2, true, 1, true},
		{"two keys, no run", []uint64{1, 3}, 2, 0, false, 1, false},
		{"three keys, a run", []uint64{1, 2, 3}, 4, 3, true, 2, true},
		{"odd count, median", []uint64{1, 3, 5, 7, 9}, 4, 0, false, 2, false},
	} {
		at, run := SplitPoint(tc.keys, tc.pending, tc.prev, tc.havePrev)
		if at != tc.at || run != tc.run {
			t.Errorf("%s: SplitPoint(%v, %d, %d, %v) = %d, %v; want %d, %v",
				tc.name, tc.keys, tc.pending, tc.prev, tc.havePrev, at, run, tc.at, tc.run)
		}
	}
}

// FuzzSplitPoint holds the rule to its contract on arbitrary nodes: the
// median whenever pending is neither above every key nor directly after
// prev, always within [n/2, 3n/4], both sides non-empty, and never past
// the median on the word of a prev that is not in the node.
func FuzzSplitPoint(f *testing.F) {
	f.Add(int64(1), uint8(64), uint64(1<<63), uint64(1<<62), true)
	f.Add(int64(2), uint8(2), uint64(0), uint64(0), false)
	f.Add(int64(3), uint8(59), ^uint64(0), ^uint64(0)-1, true)
	f.Fuzz(func(t *testing.T, seed int64, size uint8, pending, prev uint64, havePrev bool) {
		n := 2 + int(size)%127
		r := rand.New(rand.NewSource(seed))
		seen := map[uint64]bool{pending: true}
		keys := make([]uint64, 0, n)
		for len(keys) < n {
			// Narrow draws around pending and prev so that adjacency happens.
			k := pending + uint64(r.Intn(4*n)) - uint64(2*n)
			if r.Intn(2) == 0 {
				k = prev + uint64(r.Intn(4*n)) - uint64(2*n)
			}
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		slices.Sort(keys)
		if r.Intn(4) == 0 {
			prev = keys[r.Intn(n)] // a prev that is in the node
		}
		at, run := SplitPoint(keys, pending, prev, havePrev)

		rank, _ := slices.BinarySearch(keys, pending)
		prevAt, resident := slices.BinarySearch(keys, prev)
		aboveAll := rank == n
		afterPrev := havePrev && resident && prevAt == rank-1
		if !aboveAll && !afterPrev && (at != n/2 || run) {
			t.Fatalf("no run, yet split at %d (run %v) of %d", at, run, n)
		}
		if havePrev && !resident && (at != n/2 || run) {
			t.Fatalf("prev %d is not in the node, yet split at %d (run %v) of %d", prev, at, run, n)
		}
		if at < n/2 || at > 3*n/4 {
			t.Fatalf("split at %d outside [%d, %d]", at, n/2, 3*n/4)
		}
		if at < 1 || at > n-1 {
			t.Fatalf("split at %d of %d leaves a side empty", at, n)
		}
		if run && at != min(max(rank, n/2), 3*n/4) {
			t.Fatalf("run split at %d, want pending's rank %d held to [%d, %d]", at, rank, n/2, 3*n/4)
		}
	})
}

func TestPlaced(t *testing.T) {
	var p Placed
	if _, ok := p.At(0); ok {
		t.Fatal("an empty memory has a key at level 0")
	}
	p.Note(2, 7)
	if _, ok := p.At(1); ok {
		t.Fatal("noting level 2 set level 1")
	}
	if k, ok := p.At(2); !ok || k != 7 {
		t.Fatalf("At(2) = %d, %v; want 7, true", k, ok)
	}
	p.Note(0, 0) // key 0 is a key
	if k, ok := p.At(0); !ok || k != 0 {
		t.Fatalf("At(0) = %d, %v; want 0, true", k, ok)
	}
	if _, ok := p.At(9); ok {
		t.Fatal("a level never noted has a key")
	}
}
