package core

import (
	"encoding/binary"
	"sort"
	"sync"

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

// internalLayout is the derived byte geometry of internal nodes. The
// image pool recycles fetch buffers on the hot traversal path; decoded
// nodes copy every byte they keep, so a buffer can be recycled as soon
// as decoding finishes.
type internalLayout struct {
	span    int
	keySize int

	headerCell cell
	entryCells []cell
	allCells   []cell
	size       int

	imgPool sync.Pool // of []byte, len == size
}

// getImage returns a (possibly recycled) internal-node image buffer.
func (l *internalLayout) getImage() []byte {
	if b, ok := l.imgPool.Get().([]byte); ok && len(b) == l.size {
		return b
	}
	return make([]byte, l.size)
}

// putImage recycles a buffer previously returned by getImage.
func (l *internalLayout) putImage(b []byte) {
	if len(b) == l.size {
		l.imgPool.Put(b)
	}
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
	return l
}

// pivotEntry is one routing entry of a decoded internal node.
type pivotEntry struct {
	pivot uint64
	child dmsim.GAddr
}

// internalNode is the decoded form. Pivots are kept sorted ascending.
type internalNode struct {
	addr     dmsim.GAddr
	level    uint8
	valid    bool
	fenceLow uint64
	fenceInf bool
	fenceHi  uint64
	sibling  dmsim.GAddr
	leftmost dmsim.GAddr
	entries  []pivotEntry
}

// covers reports whether the node's key range includes key.
func (n *internalNode) covers(key uint64) bool {
	return key >= n.fenceLow && (n.fenceInf || key < n.fenceHi)
}

// childFor returns the child covering key and the index of the routing
// entry used (-1 for the leftmost child). It also returns the address of
// the next sibling child (the "next child pointer" used for
// sibling-based validation of leaves, §4.2.3); next is the nil address
// when the child is the node's last.
func (n *internalNode) childFor(key uint64) (child dmsim.GAddr, entryIdx int, next dmsim.GAddr) {
	// First entry with pivot > key; the child before it covers key.
	i := sort.Search(len(n.entries), func(i int) bool { return n.entries[i].pivot > key })
	if i == 0 {
		child = n.leftmost
		entryIdx = -1
	} else {
		child = n.entries[i-1].child
		entryIdx = i - 1
	}
	if i < len(n.entries) {
		next = n.entries[i].child
	}
	return child, entryIdx, next
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

// decodeInternal parses a fetched whole-node image after version
// validation, reading the header and pivots where they lie. addr is
// recorded for cache bookkeeping.
func (l *internalLayout) decodeInternal(addr dmsim.GAddr, img []byte) *internalNode {
	h := img[l.headerCell.Off+1:]
	n := &internalNode{
		addr:     addr,
		valid:    h[0]&inodeFlagValid != 0,
		fenceInf: h[0]&inodeFlagFenceInf != 0,
		level:    h[1],
		fenceLow: binary.LittleEndian.Uint64(h[4:12]),
		fenceHi:  binary.LittleEndian.Uint64(h[12:20]),
		sibling:  dmsim.UnpackGAddr(binary.LittleEndian.Uint64(h[20:28])),
		leftmost: dmsim.UnpackGAddr(binary.LittleEndian.Uint64(h[28:36])),
	}
	nkeys := int(binary.LittleEndian.Uint16(h[2:4]))
	if nkeys > l.span {
		nkeys = l.span // torn header defends itself; version check re-runs
	}
	n.entries = make([]pivotEntry, nkeys)
	var child [8]byte
	for i := range n.entries {
		c := l.entryCells[i]
		readCellContentAt(img, c, l.keySize, child[:])
		n.entries[i] = pivotEntry{
			pivot: binary.LittleEndian.Uint64(img[c.Off+1:]),
			child: dmsim.UnpackGAddr(binary.LittleEndian.Uint64(child[:])),
		}
	}
	return n
}

// checkInternalImage validates the version bytes of a fetched internal
// node image.
func (l *internalLayout) checkInternalImage(img []byte) error {
	return checkVersions(img, 0, l.allCells)
}
