package core

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"
)

func TestPackVer(t *testing.T) {
	for nv := uint8(0); nv < 16; nv++ {
		for ev := uint8(0); ev < 16; ev++ {
			b := packVer(nv, ev)
			if verNV(b) != nv || verEV(b) != ev {
				t.Fatalf("packVer(%d,%d) round-trips to (%d,%d)", nv, ev, verNV(b), verEV(b))
			}
		}
	}
	// Nibbles wrap.
	if b := packVer(17, 18); verNV(b) != 1 || verEV(b) != 2 {
		t.Fatal("version nibbles must wrap mod 16")
	}
}

func TestLayoutCellsSmallNoLineCrossing(t *testing.T) {
	// 20-byte content cells (21B physical): 3 fit per 64-byte line.
	cells, size := layoutCells(0, []int{20, 20, 20, 20})
	for i, c := range cells {
		start := c.Off % lineSize
		if start+c.Physical() > lineSize {
			t.Fatalf("cell %d at %d crosses a line", i, c.Off)
		}
	}
	if cells[3].Off != 64 {
		t.Fatalf("4th cell should start a new line, got %d", cells[3].Off)
	}
	if size != cells[3].End() {
		t.Fatalf("region size %d, last cell ends %d", size, cells[3].End())
	}
}

func TestLayoutCellsBig(t *testing.T) {
	// 130 bytes of content needs ceil(130/63)=3 lines.
	cells, _ := layoutCells(0, []int{10, 130})
	big := cells[1]
	if !big.Big || big.Lines != 3 {
		t.Fatalf("big cell = %+v, want 3 lines", big)
	}
	if big.Off%lineSize != 0 {
		t.Fatalf("big cell must be line-aligned, got %d", big.Off)
	}
	var offs []int
	offs = big.VersionOffsets(offs)
	if len(offs) != 3 || offs[0] != big.Off || offs[1] != big.Off+64 {
		t.Fatalf("version offsets = %v", offs)
	}
}

func TestCellContentRoundTrip(t *testing.T) {
	prop := func(seed int64, sizeRaw uint16) bool {
		size := int(sizeRaw)%300 + 1
		cells, total := layoutCells(0, []int{size})
		img := make([]byte, total)
		content := make([]byte, size)
		x := uint64(seed)
		for i := range content {
			x = x*6364136223846793005 + 1442695040888963407
			content[i] = byte(x >> 56)
		}
		writeCellContent(img, cells[0], content)
		got := readCellContent(img, cells[0], nil)
		return bytes.Equal(got, content)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteCellDoesNotClobberVersionBytes(t *testing.T) {
	cells, total := layoutCells(0, []int{200})
	img := make([]byte, total)
	var offs []int
	offs = cells[0].VersionOffsets(offs)
	for _, o := range offs {
		img[o] = packVer(7, 3)
	}
	content := bytes.Repeat([]byte{0xFF}, 200)
	writeCellContent(img, cells[0], content)
	for _, o := range offs {
		if img[o] != packVer(7, 3) {
			t.Fatalf("content write clobbered version byte at %d", o)
		}
	}
}

func TestBumpNVAndEV(t *testing.T) {
	cells, total := layoutCells(0, []int{30, 200})
	img := make([]byte, total)

	bumpNV(img, cells)
	var offs []int
	for _, c := range cells {
		for _, o := range c.VersionOffsets(offs[:0]) {
			if verNV(img[o]) != 1 || verEV(img[o]) != 0 {
				t.Fatalf("after bumpNV version byte at %d = %#x", o, img[o])
			}
		}
	}

	bumpEV(img, cells[1])
	for _, o := range cells[0].VersionOffsets(offs[:0]) {
		if verEV(img[o]) != 0 {
			t.Fatal("bumpEV leaked into other cell")
		}
	}
	for _, o := range cells[1].VersionOffsets(offs[:0]) {
		if verEV(img[o]) != 1 || verNV(img[o]) != 1 {
			t.Fatalf("bumpEV wrong at %d: %#x", o, img[o])
		}
	}
}

func TestCheckVersionsDetectsNodeTear(t *testing.T) {
	cells, total := layoutCells(0, []int{30, 30, 200})
	img := make([]byte, total)
	if err := checkVersions(img, 0, cells); err != nil {
		t.Fatalf("clean image must validate: %v", err)
	}
	// Simulate a reader that caught half of a node write: one cell has
	// the new NV.
	bumpNV(img, cells[1:2])
	if err := checkVersions(img, 0, cells); err != errTornRead {
		t.Fatalf("NV tear not detected: %v", err)
	}
}

func TestCheckVersionsDetectsEntryTear(t *testing.T) {
	cells, total := layoutCells(0, []int{200})
	img := make([]byte, total)
	// Tear *inside* a big cell: bump only its second line's version.
	var offs []int
	offs = cells[0].VersionOffsets(offs)
	img[offs[1]] = packVer(0, 1)
	if err := checkVersions(img, 0, cells); err != errTornRead {
		t.Fatalf("intra-cell tear not detected: %v", err)
	}
}

func TestCheckVersionsWindowOffset(t *testing.T) {
	cells, total := layoutCells(128, []int{30})
	img := make([]byte, 128+total)
	bumpNV(img, cells)
	// Validate through a window starting at offset 128.
	if err := checkVersions(img[128:], 128, cells); err != nil {
		t.Fatalf("windowed validation failed: %v", err)
	}
}

func TestLockWordRoundTrip(t *testing.T) {
	prop := func(locked bool, vac uint64, argmax uint16, valid bool) bool {
		lw := lockWord{
			locked:      locked,
			vacancy:     vac & (1<<vacancyBits - 1),
			argmax:      int(argmax) & (1<<argmaxBits - 1),
			argmaxValid: valid,
		}
		return decodeLockWord(lw.encode()) == lw
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLockWordLockBitIsBitZero(t *testing.T) {
	lw := lockWord{locked: true}
	if lw.encode() != 1 {
		t.Fatalf("lock-only word = %#x, want 1", lw.encode())
	}
}

func TestVacancyGroups(t *testing.T) {
	cases := []struct{ span, groups, perBit int }{
		{8, 8, 1},
		{48, 48, 1},
		{64, 32, 2},
		{96, 48, 2},
		{512, 47, 11},
	}
	for _, c := range cases {
		g, p := vacancyGroups(c.span)
		if g != c.groups || p != c.perBit {
			t.Errorf("vacancyGroups(%d) = (%d,%d), want (%d,%d)", c.span, g, p, c.groups, c.perBit)
		}
		if g > vacancyBits {
			t.Errorf("span %d: %d groups exceed bitmap width", c.span, g)
		}
		// Groups must cover the whole span.
		lo, hi := groupRange(g-1, p, c.span)
		if hi != c.span || lo >= hi {
			t.Errorf("span %d: last group [%d,%d)", c.span, lo, hi)
		}
	}
}

func TestLeafLayoutGeometry(t *testing.T) {
	lay := newLeafLayout(DefaultOptions())
	if len(lay.entryCells) != 64 || len(lay.replicaCells) != 8 {
		t.Fatalf("cells: %d entries, %d replicas", len(lay.entryCells), len(lay.replicaCells))
	}
	// Entry cells must be strictly increasing and non-overlapping with
	// replicas interleaved every H entries.
	prev := 0
	for _, c := range lay.allCells {
		if c.Off < prev {
			t.Fatalf("cell at %d overlaps previous ending %d", c.Off, prev)
		}
		prev = c.End()
	}
	if lay.size < prev {
		t.Fatal("node size smaller than last cell")
	}
	// Replica g must precede entry g*H.
	for g, rc := range lay.replicaCells {
		if rc.Off >= lay.entryCells[g*lay.h].Off {
			t.Fatalf("replica %d at %d not before entry %d", g, rc.Off, g*lay.h)
		}
	}
}

func TestLeafEntryCodec(t *testing.T) {
	lay := newLeafLayout(DefaultOptions())
	im := newLeafImage(lay)
	e := leafEntry{occupied: true, hopBM: 0xBEEF, key: 0x1122334455667788, value: []byte("8bytesok")}
	im.setEntry(5, e)
	got := im.entry(5)
	if !got.occupied || got.hopBM != 0xBEEF || got.key != e.key || string(got.value) != "8bytesok" {
		t.Fatalf("entry round trip: %+v", got)
	}
	// setEntry must bump EV.
	c := lay.entryCells[5]
	if verEV(im.buf[c.Off]) != 1 {
		t.Fatal("setEntry must bump the entry version")
	}
	// Other entries untouched.
	if im.entry(6).occupied {
		t.Fatal("neighboring entry contaminated")
	}
}

func TestLeafMetaCodec(t *testing.T) {
	lay := newLeafLayout(DefaultOptions())
	im := newLeafImage(lay)
	m := leafMeta{valid: true, sibling: gaddr(1, 0x1234), fenceHi: 999}
	im.setAllMeta(m)
	for g := 0; g < len(lay.replicaCells); g++ {
		got := im.meta(g)
		if !got.valid || got.sibling != m.sibling || got.fenceHi != 999 || got.fenceInf {
			t.Fatalf("replica %d: %+v", g, got)
		}
	}
}

func TestReconstructHopBitmap(t *testing.T) {
	lay := newLeafLayout(DefaultOptions())
	im := newLeafImage(lay)
	// Find a key homed at slot 3, place it at 3 and another at 5.
	var k1, k2 uint64
	for k := uint64(1); ; k++ {
		if lay.homeOf(k) == 3 {
			if k1 == 0 {
				k1 = k
			} else {
				k2 = k
				break
			}
		}
	}
	im.setEntry(3, leafEntry{occupied: true, key: k1, value: make([]byte, 8)})
	im.setEntry(5, leafEntry{occupied: true, key: k2, value: make([]byte, 8)})
	bm := im.reconstructHopBitmap(3)
	if bm != 0b101 {
		t.Fatalf("reconstructed bitmap = %b, want 101", bm)
	}
}

func TestNeighborhoodSegments(t *testing.T) {
	lay := newLeafLayout(DefaultOptions())

	// Mid-node, non-wrapping: one segment, containing a replica.
	segs, idxs := lay.neighborhoodSegments(nil, 10, 8, true), lay.neighborhoodIndexes(nil, 10, 8)
	if len(segs) != 1 {
		t.Fatalf("non-wrap segments = %d", len(segs))
	}
	if len(idxs) != 8 || idxs[0] != 10 || idxs[7] != 17 {
		t.Fatalf("idxs = %v", idxs)
	}
	if lay.metaInRanges(segs) < 0 {
		t.Fatal("window must contain a metadata replica")
	}

	// Group-aligned: replica precedes the group.
	segs = lay.neighborhoodSegments(nil, 16, 8, true)
	if lay.metaInRanges(segs) != 2 {
		t.Fatalf("group-aligned window replica group = %d, want 2", lay.metaInRanges(segs))
	}

	// Wrap-around: two segments, replica available.
	segs, idxs = lay.neighborhoodSegments(nil, 60, 8, true), lay.neighborhoodIndexes(idxs[:0], 60, 8)
	if len(segs) != 2 {
		t.Fatalf("wrap segments = %d", len(segs))
	}
	if idxs[0] != 60 || idxs[4] != 0 || idxs[7] != 3 {
		t.Fatalf("wrap idxs = %v", idxs)
	}
	if lay.metaInRanges(segs) < 0 {
		t.Fatal("wrap window must contain a replica")
	}

	// Every home position must yield a window with a replica.
	for home := 0; home < lay.span; home++ {
		segs := lay.neighborhoodSegments(nil, home, lay.h, true)
		if lay.metaInRanges(segs) < 0 {
			t.Fatalf("home %d: no replica in window", home)
		}
	}
}

func TestCoveredCells(t *testing.T) {
	lay := newLeafLayout(DefaultOptions())
	segs := lay.neighborhoodSegments(nil, 10, 8, true)
	cells := lay.cellsIn(segs[0])
	// At least the 8 entries plus 1 replica.
	if len(segs) != 1 || len(cells) < 9 {
		t.Fatalf("%d segments, covered cells = %d, want 1 and >= 9", len(segs), len(cells))
	}
	for _, c := range cells {
		if c.Off < segs[0].Off || c.End() > segs[0].End {
			t.Fatalf("cell at %d reported covered but isn't", c.Off)
		}
	}
	if want := refCoveredCells(lay, segs); !slices.Equal(cells, want) {
		t.Fatalf("covered cells %v, reference %v", cells, want)
	}
}

func TestBigValueLeafLayout(t *testing.T) {
	o := DefaultOptions()
	o.ValueSize = 512
	lay := newLeafLayout(o)
	c := lay.entryCells[0]
	if !c.Big {
		t.Fatal("512B-value entries must be big cells")
	}
	im := newLeafImage(lay)
	val := bytes.Repeat([]byte{0xAB}, 512)
	im.setEntry(0, leafEntry{occupied: true, key: 42, value: val})
	got := im.entry(0)
	if !bytes.Equal(got.value, val) || got.key != 42 {
		t.Fatal("big-entry round trip failed")
	}
}

func TestInternalNodeCodec(t *testing.T) {
	lay := newInternalLayout(DefaultOptions())
	n := &internalNode{
		internalHeader: internalHeader{
			level:    3,
			valid:    true,
			fenceLow: 100,
			fenceHi:  2000,
			sibling:  gaddr(0, 4096),
			leftmost: gaddr(1, 8192),
		},
		entries: []pivotEntry{
			{pivot: 200, child: gaddr(0, 100)},
			{pivot: 500, child: gaddr(0, 200)},
			{pivot: 900, child: gaddr(0, 300)},
		},
	}
	img := lay.encodeInternal(n, nil)
	if err := lay.checkInternalImage(img); err != nil {
		t.Fatal(err)
	}
	got := lay.decodeInternal(gaddr(0, 1), lay.imageOf(img))
	if got.level != 3 || !got.valid || got.fenceLow != 100 || got.fenceHi != 2000 {
		t.Fatalf("header: %+v", got)
	}
	if got.sibling != n.sibling || got.leftmost != n.leftmost || len(got.entries) != 3 {
		t.Fatalf("pointers: %+v", got)
	}
	for i := range n.entries {
		if got.entries[i] != n.entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got.entries[i], n.entries[i])
		}
	}

	// Re-encode as a node write: NV must bump everywhere.
	img2 := lay.encodeInternal(got, img)
	if verNV(img2[lay.headerCell.Off]) != verNV(img[lay.headerCell.Off])+1 {
		t.Fatal("node write must bump NV")
	}
}

func TestInternalChildFor(t *testing.T) {
	lay := newInternalLayout(DefaultOptions())
	n := lay.imageOf(lay.encodeInternal(&internalNode{
		internalHeader: internalHeader{leftmost: gaddr(0, 1)},
		entries: []pivotEntry{
			{pivot: 100, child: gaddr(0, 2)},
			{pivot: 200, child: gaddr(0, 3)},
		},
	}, nil))
	cases := []struct {
		key   uint64
		child uint64
		next  uint64 // 0 = unknown
	}{
		{50, 1, 2},
		{100, 2, 3},
		{150, 2, 3},
		{200, 3, 0},
		{999, 3, 0},
	}
	for _, c := range cases {
		child, _, next := n.childFor(c.key)
		if child.Off != c.child {
			t.Errorf("childFor(%d) = %v, want off %d", c.key, child, c.child)
		}
		if next.Off != c.next {
			t.Errorf("childFor(%d) next = %v, want off %d", c.key, next, c.next)
		}
	}
}

func TestInternalInsertEntrySorted(t *testing.T) {
	n := &internalNode{}
	for _, p := range []uint64{50, 10, 90, 30} {
		if !n.insertEntry(4, pivotEntry{pivot: p}) {
			t.Fatal("insert into non-full node failed")
		}
	}
	if n.insertEntry(4, pivotEntry{pivot: 70}) {
		t.Fatal("insert into full node must fail")
	}
	for i := 1; i < len(n.entries); i++ {
		if n.entries[i-1].pivot >= n.entries[i].pivot {
			t.Fatalf("pivots not sorted: %+v", n.entries)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Options){
		func(o *Options) { o.SpanSize = 1 },
		func(o *Options) { o.Neighborhood = 0 },
		func(o *Options) { o.Neighborhood = 17 },
		func(o *Options) { o.SpanSize = 60 }, // not a multiple of 8
		func(o *Options) { o.ValueSize = 0 },
		func(o *Options) { o.KeySize = 4 },
	}
	for i, mutate := range bad {
		o := DefaultOptions()
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("case %d must fail validation", i)
		}
	}
}
