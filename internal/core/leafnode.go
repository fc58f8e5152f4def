package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"chime/internal/dmsim"
	"chime/internal/hopscotch"
	"chime/internal/offroute"
)

// Leaf node remote layout (paper Figure 10, optimized):
//
//	off 0:   8-byte lock word (lock bit | vacancy bitmap | argmax)
//	off 64:  groups, each = [metadata replica][H entries]
//
// A metadata replica precedes every H entries, so any H-entry
// neighborhood read either contains a replica or starts right after one
// and can include it by extending the window one cell to the left
// (§4.2.2). Entry cells and replica cells carry the two-level version
// bytes described in layout.go.
//
// Entry content:   [1B flags][2B hopscotch bitmap][keySize key][val]
// Replica content: [1B flags][8B sibling][8B fenceHigh]
//
// The replica's fenceHigh is this implementation's safety net for the
// one case sibling-based validation cannot decide: a reader that reaches
// the *last* child of its parent has no "next child pointer" to compare
// the leaf's sibling against, so it falls back to comparing the target
// key with fenceHigh. See the DESIGN.md substitution notes.

const (
	entryFlagOccupied = 1 << 0

	replicaFlagValid    = 1 << 0
	replicaFlagFenceInf = 1 << 1
)

// leafLayout is the derived byte geometry of a leaf node for a given
// Options. It is immutable and shared by all clients (the image pool is
// internally synchronized).
type leafLayout struct {
	span, h  int
	keySize  int
	valSize  int // stored bytes per value field (8 when indirect)
	valOff   int // content offset of the value field: 3 + keySize
	indirect bool

	entryCells   []cell // indexed by entry index
	replicaCells []cell // indexed by group (span/h groups)
	allCells     []cell // every cell, for node-level version bumps
	size         int    // total node footprint including lock word

	vacGroups, vacPerBit int

	imgPool sync.Pool // of *leafImage; hot read paths recycle images
}

func newLeafLayout(o Options) *leafLayout {
	l := &leafLayout{
		span:     o.SpanSize,
		h:        o.Neighborhood,
		keySize:  o.KeySize,
		valSize:  o.ValueSize,
		indirect: o.Indirect,
	}
	if o.Indirect || o.VarKeys {
		l.valSize = 8 // pointer to the KV block / fingerprint chain
	}
	l.vacGroups, l.vacPerBit = vacancyGroups(o.SpanSize)

	l.valOff = 1 + 2 + l.keySize
	entryContent := l.valOff + l.valSize
	replicaContent := 1 + 8 + 8
	groups := o.SpanSize / o.Neighborhood

	var contents []int
	for g := 0; g < groups; g++ {
		contents = append(contents, replicaContent)
		for e := 0; e < o.Neighborhood; e++ {
			contents = append(contents, entryContent)
		}
	}
	cells, regionSize := layoutCells(lineSize, contents)
	l.allCells = cells
	l.size = lineSize + regionSize

	for g := 0; g < groups; g++ {
		base := g * (o.Neighborhood + 1)
		l.replicaCells = append(l.replicaCells, cells[base])
		l.entryCells = append(l.entryCells, cells[base+1:base+1+o.Neighborhood]...)
	}
	return l
}

// homeOf returns the home entry index of a key.
func (l *leafLayout) homeOf(key uint64) int {
	return int(hopscotch.Hash(key) % uint64(l.span))
}

// groupOfEntry returns the metadata-replica group of an entry index.
func (l *leafLayout) groupOfEntry(idx int) int { return idx / l.h }

// leafEntry is the decoded form of one leaf slot. A decoded value
// aliases the image it came from (see leafImage): copy it, or unpack the
// pointer it holds, before the image is recycled or the slot rewritten.
type leafEntry struct {
	occupied bool
	hopBM    uint16
	key      uint64
	value    []byte // valSize bytes; the block pointer when indirect
}

// leafMeta is the decoded form of a metadata replica.
type leafMeta struct {
	valid    bool
	sibling  dmsim.GAddr
	fenceInf bool
	fenceHi  uint64
}

// leafImage wraps a full-size leaf byte buffer. Depending on context the
// buffer holds a complete node (splits, bootstrap) or a partial window
// fetched into the right offsets (searches, inserts); callers track
// which cells are populated.
//
// Decoding is in place: entry and meta read flags, bitmap, key and
// pointers straight out of buf, and an entry's value is a sub-slice of
// buf. Only an entry cell too large for one cache line (inline values
// past 52 bytes) has its value interleaved with version bytes; such a
// layout gives the image a gather area, vals, with one valSize slot per
// entry, and entry(i) gathers into slot i — so, either way, a decoded
// value lives exactly as long as the image does, and values of different
// slots never share bytes. meta copies everything it returns.
type leafImage struct {
	lay  *leafLayout
	buf  []byte
	vals []byte   // span*valSize gather area; nil unless entry cells are big
	hop  []uint16 // inRangeIfConsistent scratch: span expected bitmaps, then span stored
}

func newLeafImage(lay *leafLayout) *leafImage {
	im := &leafImage{
		lay: lay,
		buf: make([]byte, lay.size),
		hop: make([]uint16, 2*lay.span),
	}
	if lay.entryCells[0].Big {
		im.vals = make([]byte, lay.span*lay.valSize)
	}
	return im
}

// getImage returns a (possibly recycled) full-size leaf image. Recycled
// buffers hold stale bytes from a previous node; that is safe for every
// read path because consumers only decode cells whose version bytes were
// validated over the ranges actually fetched.
func (l *leafLayout) getImage() *leafImage {
	if im, ok := l.imgPool.Get().(*leafImage); ok && im != nil {
		return im
	}
	return newLeafImage(l)
}

// getImageZeroed returns a pooled image with every byte cleared, for
// building fresh node contents that are written out whole (splits): a
// recycled buffer's stale cells would otherwise reach the wire.
func (l *leafLayout) getImageZeroed() *leafImage {
	im := l.getImage()
	clear(im.buf)
	return im
}

// poisonRecycled makes putImage and Client.putInternal scribble over
// every image they recycle. Only the package's tests set it (TestMain),
// so that anything read from an image after it went back to its pool or
// free list — the bug reading in place makes possible — fails the suite
// instead of reading bytes that usually still look right.
var poisonRecycled bool

const poisonByte = 0xA5

// putImage recycles an image. Decoded entry values alias it, so the
// caller must be done with them — copied out, or unpacked into a GAddr —
// before this call; decoded metadata holds no reference.
func (l *leafLayout) putImage(im *leafImage) {
	if im == nil || len(im.buf) != l.size {
		return
	}
	if poisonRecycled {
		poison(im.buf)
		poison(im.vals)
	}
	l.imgPool.Put(im)
}

func poison(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}

// slot reads slot i's occupancy, hopscotch bitmap and key in place. They
// sit in the first 11 content bytes, which even a big cell keeps
// contiguous in its first line.
//
//chime:noalloc
func (im *leafImage) slot(i int) (occupied bool, hopBM uint16, key uint64) {
	p := im.buf[im.lay.entryCells[i].Off+1:]
	return p[0]&entryFlagOccupied != 0, binary.LittleEndian.Uint16(p[1:3]), binary.LittleEndian.Uint64(p[3:11])
}

// entry decodes slot i in place; the value aliases the image.
//
//chime:noalloc
func (im *leafImage) entry(i int) leafEntry {
	var e leafEntry
	e.occupied, e.hopBM, e.key = im.slot(i)
	e.value = im.value(i)
	return e
}

// value is slot i's value, in place (a scan knows the rest of the slot).
//
//chime:noalloc
func (im *leafImage) value(i int) []byte {
	lay := im.lay
	if lay.entryCells[0].Big {
		v := im.vals[i*lay.valSize : (i+1)*lay.valSize : (i+1)*lay.valSize]
		readCellContentAt(im.buf, lay.entryCells[i], lay.valOff, v)
		return v
	}
	v := lay.entryCells[i].Off + 1 + lay.valOff
	return im.buf[v : v+lay.valSize : v+lay.valSize]
}

// setEntryNoBump encodes slot i in place without touching versions (bulk
// builds followed by a whole-node write, which bumps NV instead).
// e.value may be the slot's own decoded value (a read-modify-write of
// the other fields) or shorter than valSize (zero-padded, as is the key
// beyond its 8 bytes).
func (im *leafImage) setEntryNoBump(i int, e leafEntry) {
	lay := im.lay
	c := lay.entryCells[i]
	p := im.buf[c.Off+1:]
	p[0] = 0
	if e.occupied {
		p[0] = entryFlagOccupied
	}
	binary.LittleEndian.PutUint16(p[1:3], e.hopBM)
	binary.LittleEndian.PutUint64(p[3:11], e.key)
	zeroCellContentAt(im.buf, c, 11, lay.keySize-8)
	val := e.value
	if len(val) > lay.valSize {
		val = val[:lay.valSize]
	}
	writeCellContentAt(im.buf, c, lay.valOff, val)
	zeroCellContentAt(im.buf, c, lay.valOff+len(val), lay.valSize-len(val))
}

// setEntry encodes slot i and bumps its entry-level version.
func (im *leafImage) setEntry(i int, e leafEntry) {
	im.setEntryNoBump(i, e)
	bumpEV(im.buf, im.lay.entryCells[i])
}

// meta decodes the metadata replica of group g. A replica's 17 content
// bytes always fit one line, so it is read where it lies.
//
//chime:noalloc
func (im *leafImage) meta(g int) leafMeta {
	p := im.buf[im.lay.replicaCells[g].Off+1:]
	return leafMeta{
		valid:    p[0]&replicaFlagValid != 0,
		fenceInf: p[0]&replicaFlagFenceInf != 0,
		sibling:  dmsim.UnpackGAddr(binary.LittleEndian.Uint64(p[1:9])),
		fenceHi:  binary.LittleEndian.Uint64(p[9:17]),
	}
}

// setAllMeta writes the same metadata into every replica. Metadata only
// changes under node writes (splits), which bump NV for the whole node,
// so no EV bump here.
func (im *leafImage) setAllMeta(m leafMeta) {
	var flags byte
	if m.valid {
		flags |= replicaFlagValid
	}
	if m.fenceInf {
		flags |= replicaFlagFenceInf
	}
	for _, c := range im.lay.replicaCells {
		p := im.buf[c.Off+1:]
		p[0] = flags
		binary.LittleEndian.PutUint64(p[1:9], m.sibling.Pack())
		binary.LittleEndian.PutUint64(p[9:17], m.fenceHi)
	}
}

// bumpAllNV increments the node-level version across the whole image.
func (im *leafImage) bumpAllNV() { bumpNV(im.buf, im.lay.allCells) }

// reconstructHopBitmap recomputes, from the actual keys stored in the
// image, the hopscotch bitmap that the home entry `home` should carry:
// bit d is set when slot (home+d)%span holds a key whose home is `home`.
// Only the slots in [home, home+h) are examined, all of which a
// neighborhood read fetches.
//
//chime:noalloc
func (im *leafImage) reconstructHopBitmap(home int) uint16 {
	var bm uint16
	for d := 0; d < im.lay.h; d++ {
		occupied, _, key := im.slot((home + d) % im.lay.span)
		if occupied && im.lay.homeOf(key) == home {
			bm |= 1 << uint(d)
		}
	}
	return bm
}

// inRangeIfConsistent is the one walk a scan makes of a whole fetched
// leaf. It is the third synchronization level (§4.1.2) — it reports
// whether every home entry's stored hopscotch bitmap equals
// reconstructHopBitmap of that home, in one pass instead of span of them
// — and, since that pass visits every occupied slot with its key, it
// also appends the slots holding keys >= start to dst, in slot order
// (meaningful only when the leaf is consistent).
//
// Slot i can only ever set one bit of one home's reconstructed bitmap —
// bit (i-home) mod span of its key's home, and only when that distance
// is below h — because reconstructHopBitmap(home) looks at slot i
// exactly when i = (home+d) mod span for some d < h and counts it
// exactly when the key's home is `home`. So hashing each occupied slot
// once and OR-ing that bit into an expected bitmap per home builds the
// same span values the per-home loops would.
func (im *leafImage) inRangeIfConsistent(dst []offroute.ScanSlot, start uint64) ([]offroute.ScanSlot, bool) {
	lay := im.lay
	want, stored := im.hop[:lay.span], im.hop[lay.span:]
	clear(want)
	for i := range stored {
		occupied, bm, key := im.slot(i)
		stored[i] = bm
		if !occupied {
			continue
		}
		if key >= start {
			dst = append(dst, offroute.ScanSlot{Key: key, Idx: i})
		}
		home := lay.homeOf(key)
		d := i - home
		if d < 0 {
			d += lay.span
		}
		if d < lay.h {
			want[home] |= 1 << uint(d)
		}
	}
	return dst, slices.Equal(want, stored)
}

// probe looks key up in a fetched neighborhood window of its home: the
// third synchronization level (§4.1.2) first — the home entry's stored
// hopscotch bitmap must match the one reconstructed from the keys
// actually fetched, or a concurrent hop-range write was caught
// mid-flight and consistent is false — then the slots the bitmap names.
// slot is -1 when the key is absent; value aliases the image.
//
//chime:noalloc
func (im *leafImage) probe(home int, key uint64) (slot int, value []byte, consistent bool) {
	_, hopBM, _ := im.slot(home)
	if hopBM != im.reconstructHopBitmap(home) {
		return -1, nil, false
	}
	for d := 0; d < im.lay.h; d++ {
		if hopBM&(1<<uint(d)) == 0 {
			continue
		}
		i := (home + d) % im.lay.span
		if occupied, _, k := im.slot(i); occupied && k == key {
			return i, im.value(i), true
		}
	}
	return -1, nil, true
}

// byteRange is a contiguous region of the node image.
type byteRange struct{ Off, End int }

func (r byteRange) size() int { return r.End - r.Off }

// cellSpanRange returns the byte range covering entry indexes
// [first, first+count) of a non-wrapping run, extended left to include
// the metadata replica adjacent to or inside the run.
func (l *leafLayout) cellSpanRange(first, count int, includeMeta bool) byteRange {
	lo := l.entryCells[first].Off
	hi := l.entryCells[first+count-1].End()
	if includeMeta {
		g := l.groupOfEntry(first)
		if rc := l.replicaCells[g]; rc.Off < lo {
			// The run starts mid-group; its own group's replica sits
			// before it. If the run crosses into the next group it
			// already contains that group's replica; otherwise extend
			// left to the replica of the starting group.
			if l.groupOfEntry(first+count-1) == g {
				lo = rc.Off
			}
		}
	}
	return byteRange{Off: lo, End: hi}
}

// neighborhoodSegments appends to dst the 1 or 2 byte ranges (2 on
// wrap-around) covering entries [home, home+count) circularly, each
// extended to include a metadata replica when includeMeta is set. A dst
// with room for two makes it allocation-free.
//
//chime:noalloc
func (l *leafLayout) neighborhoodSegments(dst []byteRange, home, count int, includeMeta bool) []byteRange {
	if count > l.span {
		count = l.span
	}
	var segs [2]byteRange
	n := 1
	if home+count <= l.span {
		segs[0] = l.cellSpanRange(home, count, includeMeta)
	} else {
		first := l.span - home
		segs[0] = l.cellSpanRange(home, first, includeMeta)
		// The second segment starts at entry 0, whose group replica is
		// replica 0, located just before it.
		segs[1] = l.cellSpanRange(0, count-first, false)
		if includeMeta {
			segs[1].Off = l.replicaCells[0].Off
		}
		n = 2
	}
	//lint:allow noalloc segment scratch retains capacity after warm-up
	return append(dst, segs[:n]...)
}

// neighborhoodIndexes appends to dst the entry indexes
// neighborhoodSegments covers, in fetch order.
//
//chime:noalloc
func (l *leafLayout) neighborhoodIndexes(dst []int, home, count int) []int {
	if count > l.span {
		count = l.span
	}
	for d := 0; d < count; d++ {
		//lint:allow noalloc index scratch retains capacity after warm-up
		dst = append(dst, (home+d)%l.span)
	}
	return dst
}

// cellsIn returns the cells fully inside r. Cells are laid out one
// after another, so they form one run of allCells: its first cell is
// one binary search on the cells' starts, and it ends at the first cell
// that reaches past r, no further than the check of the run walks.
//
//chime:noalloc
func (l *leafLayout) cellsIn(r byteRange) []cell {
	cells := l.allCells
	lo, hi := 0, len(cells)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); cells[m].Off < r.Off {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for hi < len(cells) && cells[hi].End() <= r.End {
		hi++
	}
	return cells[lo:hi]
}

// checkRanges validates the version bytes of every cell the fetched
// ranges cover, all against the NV of the first.
//
//chime:noalloc
func (im *leafImage) checkRanges(ranges []byteRange) error {
	var nv uint8
	first := true
	for _, r := range ranges {
		cells := im.lay.cellsIn(r)
		if len(cells) == 0 {
			continue
		}
		if first {
			nv, first = verNV(im.buf[cells[0].Off]), false
		}
		if err := checkVersionsNV(im.buf, 0, cells, nv); err != nil {
			return err
		}
	}
	return nil
}

// metaInRanges returns the group index of a metadata replica fully
// contained in the ranges, or -1.
func (l *leafLayout) metaInRanges(ranges []byteRange) int {
	for g, c := range l.replicaCells {
		for _, r := range ranges {
			if c.Off >= r.Off && c.End() <= r.End {
				return g
			}
		}
	}
	return -1
}

// lockAddr returns the remote address of the node's lock word.
func leafLockAddr(node dmsim.GAddr) dmsim.GAddr { return node }

// String renders layout geometry for diagnostics.
func (l *leafLayout) String() string {
	return fmt.Sprintf("leaf{span=%d h=%d key=%d val=%d size=%dB}",
		l.span, l.h, l.keySize, l.valSize, l.size)
}
