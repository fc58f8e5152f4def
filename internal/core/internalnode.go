package core

import (
	"encoding/binary"
	"sort"

	"chime/internal/dmsim"
)

// Internal node remote layout (paper Figure 6):
//
//	off 0:   8-byte lock word (only the lock bit is used)
//	off 64:  header cell: [1B flags][1B level][2B nkeys]
//	                      [8B fenceLow][8B fenceHigh][8B sibling]
//	                      [8B leftmost child]
//	then:    span entry cells: [keySize pivot][8B child]
//
// Internal nodes keep their fence keys (only leaves shed them via
// sibling-based validation, §4.2.3). Entry cells are only ever modified
// under whole-node writes, so reads validate with the node-level version
// alone. child[i] covers keys in [pivot[i], pivot[i+1]); the leftmost
// child covers [fenceLow, pivot[0]).

const (
	inodeFlagValid    = 1 << 0
	inodeFlagFenceInf = 1 << 1
)

// internalLayout is the derived byte geometry of internal nodes:
// immutable, shared by all clients.
type internalLayout struct {
	span    int
	keySize int

	headerCell cell
	entryCells []cell
	allCells   []cell
	size       int

	// Where in-place routing finds entry i: its pivot's 8 bytes at
	// pivotOff[i] (they open the cell's first line) and its child
	// pointer childDelta bytes further on. Entry cells all have one
	// geometry, so the distance is the layout's; it is -1 when a wide
	// key pushes the child across a line boundary of its cell, and the
	// child is gathered around the version byte instead.
	pivotOff   []int
	childDelta int
}

func newInternalLayout(o Options) *internalLayout {
	l := &internalLayout{span: o.SpanSize, keySize: o.KeySize}
	headerContent := 1 + 1 + 2 + 8 + 8 + 8 + 8
	entryContent := o.KeySize + 8
	contents := []int{headerContent}
	for i := 0; i < o.SpanSize; i++ {
		contents = append(contents, entryContent)
	}
	cells, regionSize := layoutCells(lineSize, contents)
	l.headerCell = cells[0]
	l.entryCells = cells[1:]
	l.allCells = cells
	l.size = lineSize + regionSize
	for _, c := range l.entryCells {
		l.pivotOff = append(l.pivotOff, c.Off+1)
	}
	l.childDelta = -1
	if off, run := l.entryCells[0].ContentAt(l.keySize); run >= 8 {
		l.childDelta = off - l.pivotOff[0]
	}
	return l
}

// internalHeader is the decoded header cell of an internal node.
type internalHeader struct {
	level    uint8
	valid    bool
	fenceInf bool
	fenceLow uint64
	fenceHi  uint64
	sibling  dmsim.GAddr
	leftmost dmsim.GAddr
}

// covers reports whether the node's key range includes key.
//
//chime:noalloc
func (h *internalHeader) covers(key uint64) bool {
	return key >= h.fenceLow && (h.fenceInf || key < h.fenceHi)
}

// internalImage is a fetched internal node as every descent uses it:
// the header decoded into a value, the pivots and children left where
// they lie in buf and routed on in place (childFor). Nothing is copied
// out of the image, so what a descent learns from it — a child address,
// a sibling, a level — it must take before the image moves on: into the
// node cache, which keeps it as fetched and hands the same image to
// every client, so it is never written again; or back to the fetching
// client's free list (putInternal), after which the next fetch
// overwrites both buf and header.
type internalImage struct {
	internalHeader
	nkeys int
	lay   *internalLayout
	buf   []byte
}

func newInternalImage(lay *internalLayout) *internalImage {
	return &internalImage{lay: lay, buf: make([]byte, lay.size)}
}

// imageOf wraps a complete encoded node (encodeInternal's result) for
// the cache.
func (l *internalLayout) imageOf(buf []byte) *internalImage {
	im := &internalImage{lay: l, buf: buf}
	im.decodeHeader()
	return im
}

// decodeHeader reads the header cell of a version-validated buf; its 36
// content bytes always fit one line.
//
//chime:noalloc
func (im *internalImage) decodeHeader() {
	h := im.buf[im.lay.headerCell.Off+1:]
	im.internalHeader = internalHeader{
		valid:    h[0]&inodeFlagValid != 0,
		fenceInf: h[0]&inodeFlagFenceInf != 0,
		level:    h[1],
		fenceLow: binary.LittleEndian.Uint64(h[4:12]),
		fenceHi:  binary.LittleEndian.Uint64(h[12:20]),
		sibling:  dmsim.UnpackGAddr(binary.LittleEndian.Uint64(h[20:28])),
		leftmost: dmsim.UnpackGAddr(binary.LittleEndian.Uint64(h[28:36])),
	}
	im.nkeys = int(binary.LittleEndian.Uint16(h[2:4]))
	if im.nkeys > im.lay.span {
		im.nkeys = im.lay.span // torn header defends itself; version check re-runs
	}
}

// childAt reads entry i's child pointer in place.
//
//chime:noalloc
func (im *internalImage) childAt(i int) dmsim.GAddr {
	if d := im.lay.childDelta; d >= 0 {
		return dmsim.UnpackGAddr(binary.LittleEndian.Uint64(im.buf[im.lay.pivotOff[i]+d:]))
	}
	var child [8]byte
	readCellContentAt(im.buf, im.lay.entryCells[i], im.lay.keySize, child[:])
	return dmsim.UnpackGAddr(binary.LittleEndian.Uint64(child[:]))
}

// childFor returns the child covering key and the index of the routing
// entry used (-1 for the leftmost child). It also returns the address of
// the next sibling child (the "next child pointer" used for
// sibling-based validation of leaves, §4.2.3); next is the nil address
// when the child is the node's last.
//
//chime:noalloc
func (im *internalImage) childFor(key uint64) (child dmsim.GAddr, entryIdx int, next dmsim.GAddr) {
	// First entry with pivot > key; the child before it covers key.
	buf, pivotOff := im.buf, im.lay.pivotOff[:im.nkeys]
	i, hi := 0, len(pivotOff)
	for i < hi {
		mid := int(uint(i+hi) >> 1)
		if binary.LittleEndian.Uint64(buf[pivotOff[mid]:]) > key {
			hi = mid
		} else {
			i = mid + 1
		}
	}
	if i == 0 {
		child = im.leftmost
		entryIdx = -1
	} else {
		child = im.childAt(i - 1)
		entryIdx = i - 1
	}
	if i < im.nkeys {
		next = im.childAt(i)
	}
	return child, entryIdx, next
}

// childrenAfter appends to dst the children that follow the one
// covering key, in key order, and returns that child too: on a level-1
// node, the leaves a scan from key walks into next. The point paths take
// only the first of them (childFor's next); a scan asks for the rest
// once its descent is over, so they pay nothing for it.
func (im *internalImage) childrenAfter(dst []dmsim.GAddr, key uint64) (child dmsim.GAddr, after []dmsim.GAddr) {
	child, entryIdx, _ := im.childFor(key)
	for i := entryIdx + 1; i < im.nkeys; i++ {
		dst = append(dst, im.childAt(i))
	}
	return child, dst
}

// route is what one internal node tells a descent about a key, copied
// out of the image so the image can move on at once.
type route struct {
	kind  routeKind
	level uint8       // routeDown: the node's level
	child dmsim.GAddr // routeDown: the child covering key; routeRight: the sibling to chase
	next  dmsim.GAddr // routeDown: the child after it (§4.2.3), nil past the node's last
}

type routeKind uint8

const (
	// routeDown: key is in the node's range.
	routeDown routeKind = iota
	// routeRight: a half-split moved key past the high fence; chase the
	// B-link sibling.
	routeRight
	// routeLost: the node is deleted, or key is outside its range with
	// nowhere to chase. A cached node is stale; a fetched one means
	// the tree changed under the descent.
	routeLost
)

// route applies the node to key: the body of every descent's loop.
//
//chime:noalloc
func (im *internalImage) route(key uint64) route {
	if !im.valid {
		return route{kind: routeLost}
	}
	if !im.covers(key) {
		if !im.fenceInf && key >= im.fenceHi && !im.sibling.IsNil() {
			return route{kind: routeRight, child: im.sibling}
		}
		return route{kind: routeLost}
	}
	child, _, next := im.childFor(key)
	if child.IsNil() {
		return route{kind: routeLost}
	}
	return route{kind: routeDown, level: im.level, child: child, next: next}
}

// pivotEntry is one routing entry of a decoded internal node.
type pivotEntry struct {
	pivot uint64
	child dmsim.GAddr
}

// internalNode is the fully decoded form, which only a node write
// builds (split.go, merge.go): the header, plus the routing entries
// copied out where they can be inserted into, cut and re-encoded.
// Pivots are kept sorted ascending.
type internalNode struct {
	internalHeader
	addr    dmsim.GAddr
	entries []pivotEntry
}

// insertEntry adds a routing entry, keeping pivots sorted. It reports
// false when the node is already full.
func (n *internalNode) insertEntry(span int, e pivotEntry) bool {
	if len(n.entries) >= span {
		return false
	}
	i := sort.Search(len(n.entries), func(i int) bool { return n.entries[i].pivot >= e.pivot })
	n.entries = append(n.entries, pivotEntry{})
	copy(n.entries[i+1:], n.entries[i:])
	n.entries[i] = e
	return true
}

// encodeInternal serializes the node into a fresh image, bumping the
// node-level version relative to the previous image when prev is
// non-nil (i.e. this encode represents a node write). Cells are written
// in place; the header's 36 content bytes always fit one line.
func (l *internalLayout) encodeInternal(n *internalNode, prev []byte) []byte {
	img := make([]byte, l.size)
	if prev != nil {
		copy(img, prev)
	}

	h := img[l.headerCell.Off+1:]
	h[0] = 0
	if n.valid {
		h[0] |= inodeFlagValid
	}
	if n.fenceInf {
		h[0] |= inodeFlagFenceInf
	}
	h[1] = n.level
	binary.LittleEndian.PutUint16(h[2:4], uint16(len(n.entries)))
	binary.LittleEndian.PutUint64(h[4:12], n.fenceLow)
	binary.LittleEndian.PutUint64(h[12:20], n.fenceHi)
	binary.LittleEndian.PutUint64(h[20:28], n.sibling.Pack())
	binary.LittleEndian.PutUint64(h[28:36], n.leftmost.Pack())

	var child [8]byte
	for i, e := range n.entries {
		c := l.entryCells[i]
		// The pivot's 8 bytes open the cell's first line; a key modelled
		// wider than that pads with zeros up to the child pointer.
		binary.LittleEndian.PutUint64(img[c.Off+1:], e.pivot)
		zeroCellContentAt(img, c, 8, l.keySize-8)
		binary.LittleEndian.PutUint64(child[:], e.child.Pack())
		writeCellContentAt(img, c, l.keySize, child[:])
	}
	if prev != nil {
		bumpNV(img, l.allCells)
	}
	return img
}

// decodeInternal copies a fetched node out of its image for rewriting,
// with room for the one entry a split below adds; addr is where the node
// lives.
func (l *internalLayout) decodeInternal(addr dmsim.GAddr, im *internalImage) *internalNode {
	n := &internalNode{
		internalHeader: im.internalHeader,
		addr:           addr,
		entries:        make([]pivotEntry, im.nkeys, im.nkeys+1),
	}
	for i := range n.entries {
		n.entries[i] = pivotEntry{
			pivot: binary.LittleEndian.Uint64(im.buf[l.pivotOff[i]:]),
			child: im.childAt(i),
		}
	}
	return n
}

// checkInternalImage validates the version bytes of a fetched internal
// node image.
func (l *internalLayout) checkInternalImage(img []byte) error {
	return checkVersions(img, 0, l.allCells)
}
