// Package smartidx implements the SMART baseline (OSDI '23): an
// adaptive radix tree (ART) on disaggregated memory. SMART is the
// KV-discrete design point: every key's value lives in its own small
// leaf block, so point queries have a read amplification of ~1, but the
// compute-side cache must hold the radix tree's internal nodes — whose
// count grows with the number of keys — giving the high cache
// consumption the CHIME paper measures (Figure 14).
//
// Keys are fixed 8-byte integers traversed big-endian (so radix order
// equals numeric order and scans work). Nodes are adaptive (Node4 /
// Node16 / Node48 / Node256) with path compression. Child slots are
// 16-byte aligned records whose first word is the packed child pointer;
// a slot update is a single line-atomic write or CAS, mirroring SMART's
// one-sided CAS installs. Structural changes (slot installs, node
// expansion, prefix splits) serialize on a per-node lock; lookups are
// lock-free and validate via node invalidation flags.
package smartidx

import (
	"encoding/binary"
	"errors"
	"fmt"

	"chime/internal/dmsim"
	"chime/internal/offroute"
)

// Options configures a SMART index.
type Options struct {
	// ValueSize is the value payload stored in each leaf block.
	ValueSize int

	// LeaseLocks stamps an (owner, expiry) lease into every remote lock
	// so survivors can steal locks from crashed holders (internal/lease).
	LeaseLocks bool
	// LeaseNs is the lease duration in virtual nanoseconds (zero =
	// lease.DefaultNs).
	LeaseNs int64
	// Offload selects the hybrid one-sided/RPC protocol for reads
	// (searches and scans; ART structural writes need client-side
	// allocation and stay one-sided). Zero = pure one-sided.
	Offload offroute.Mode
}

// DefaultOptions returns the paper's default configuration.
func DefaultOptions() Options { return Options{ValueSize: 8} }

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.ValueSize < 1 || o.ValueSize > 4096 {
		return fmt.Errorf("smartidx: ValueSize %d out of [1,4096]", o.ValueSize)
	}
	if o.LeaseNs < 0 {
		return fmt.Errorf("smartidx: negative LeaseNs")
	}
	return nil
}

// ErrNotFound reports an absent key.
var ErrNotFound = offroute.ErrNotFound

var errRestart = errors.New("smartidx: restart traversal")

const maxRetries = 100000

// Node kinds.
const (
	kindN4 = iota
	kindN16
	kindN48
	kindN256
)

var kindSlots = [4]int{4, 16, 48, 256}

// Remote node layout:
//
//	off 0:  8B lock word
//	off 8:  header: [1B kind][1B depth][1B prefixLen][1B valid][8B prefix][4B pad]
//	off 24: kindN48 only: 256B child index (keybyte -> slot+1)
//	then:   slot records, 16B each, 16-byte aligned:
//	        [8B child][1B keybyte][7B pad]
//
// A slot record never crosses a cache line, so the fabric's line-atomic
// copies make slot reads/writes atomic without version bytes; the child
// word doubles as the occupancy flag (0 = empty).
const (
	hdrOff    = 8
	hdrSize   = 16
	n48IdxOff = hdrOff + hdrSize
	slotSize  = 16
)

func slotsOff(kind int) int {
	if kind == kindN48 {
		return n48IdxOff + 256
	}
	return hdrOff + hdrSize
	// slots start 16-aligned in both cases (24 is not 16-aligned; see
	// nodeSize/slotOff which round up)
}

func slotOff(kind, i int) int {
	base := (slotsOff(kind) + slotSize - 1) &^ (slotSize - 1)
	return base + i*slotSize
}

func nodeSize(kind int) int {
	return slotOff(kind, kindSlots[kind])
}

// Child pointers are packed GAddrs with bit 55 tagging leaves and bits
// 53-54 carrying the child node's kind, so a parent pointer alone tells
// the reader how many bytes to fetch — one READ per node, never a
// header probe first.
const (
	leafTag   = uint64(1) << 55
	kindShift = 53
	kindMask  = uint64(3) << kindShift
	childMask = ^(leafTag | kindMask)
)

func packChild(a dmsim.GAddr, leaf bool, kind int) uint64 {
	v := a.Pack()
	if leaf {
		v |= leafTag
	}
	v |= uint64(kind) << kindShift
	return v
}

func unpackChild(v uint64) (addr dmsim.GAddr, leaf bool, kind int) {
	leaf = v&leafTag != 0
	kind = int((v & kindMask) >> kindShift)
	return dmsim.UnpackGAddr(v & childMask), leaf, kind
}

// header is a node's decoded header.
type header struct {
	kind      int
	depth     int // key bytes consumed before this node's prefix
	prefixLen int
	valid     bool
	prefix    [8]byte
}

func encodeHeader(img []byte, h header) {
	img[hdrOff+0] = byte(h.kind)
	img[hdrOff+1] = byte(h.depth)
	img[hdrOff+2] = byte(h.prefixLen)
	if h.valid {
		img[hdrOff+3] = 1
	} else {
		img[hdrOff+3] = 0
	}
	copy(img[hdrOff+4:hdrOff+12], h.prefix[:])
}

func decodeHeader(img []byte) header {
	h := header{
		kind:      int(img[hdrOff+0]),
		depth:     int(img[hdrOff+1]),
		prefixLen: int(img[hdrOff+2]),
		valid:     img[hdrOff+3] == 1,
	}
	copy(h.prefix[:], img[hdrOff+4:hdrOff+12])
	if h.kind > kindN256 {
		h.kind = kindN256
	}
	return h
}

// slot is one decoded child record.
type slot struct {
	child   uint64 // packed+tagged; 0 = empty
	keyByte byte
}

func encodeSlot(img []byte, kind, i int, s slot) {
	off := slotOff(kind, i)
	binary.LittleEndian.PutUint64(img[off:off+8], s.child)
	img[off+8] = s.keyByte
}

func decodeSlot(img []byte, kind, i int) slot {
	off := slotOff(kind, i)
	return slot{
		child:   binary.LittleEndian.Uint64(img[off : off+8]),
		keyByte: img[off+8],
	}
}

// keyBytes returns the big-endian byte path of a key.
func keyBytes(key uint64) [8]byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], key)
	return b
}

// node is a fetched internal node: its header, decoded on arrival, and
// the image it came in, which children are looked up and counted in
// where they lie.
// A node the CN cache holds is immutable and shared; any other belongs
// to the nodeSet it was fetched into and is good until that owner's next
// fetch (DESIGN.md §3): take what you need from it first.
type node struct {
	addr dmsim.GAddr
	hdr  header
	img  []byte // nodeSize(hdr.kind) bytes, lock word included
}

// arrived decodes the header of the image just read into n from addr.
func (n *node) arrived(addr dmsim.GAddr) {
	n.addr, n.hdr = addr, decodeHeader(n.img)
}

// count returns the number of children: for a Node48 the key bytes whose
// index entry names an occupied slot, otherwise the occupied slots. Only
// a writer deciding whether the node is full asks.
//
//chime:noalloc
func (n *node) count() int {
	c := 0
	if n.hdr.kind == kindN48 {
		for kb := 0; kb < 256; kb++ {
			if w, _ := n.childAt(byte(kb)); w != 0 {
				c++
			}
		}
		return c
	}
	for i := 0; i < kindSlots[n.hdr.kind]; i++ {
		if n.word(i) != 0 {
			c++
		}
	}
	return c
}

// word reads slot i's child word in place.
//
//chime:noalloc
func (n *node) word(i int) uint64 {
	off := slotOff(n.hdr.kind, i)
	return binary.LittleEndian.Uint64(n.img[off : off+8])
}

// childAt looks key byte kb up where the node lies: the packed child
// word (0 = none) and the slot holding it. Node256 slots are indexed by
// key byte, a Node48's through its 256-byte index, and the up to 16
// records of the small kinds are searched (from the last, so the slot a
// key byte was last installed in wins, as it did when nodes were decoded
// into a map).
//
//chime:noalloc
func (n *node) childAt(kb byte) (word uint64, slot int) {
	switch n.hdr.kind {
	case kindN256:
		return n.word(int(kb)), int(kb)
	case kindN48:
		si := int(n.img[n48IdxOff+int(kb)])
		if si == 0 {
			return 0, -1
		}
		return n.word(si - 1), si - 1
	}
	for i := kindSlots[n.hdr.kind] - 1; i >= 0; i-- {
		off := slotOff(n.hdr.kind, i)
		if n.img[off+8] == kb {
			if w := binary.LittleEndian.Uint64(n.img[off : off+8]); w != 0 {
				return w, i
			}
		}
	}
	return 0, -1
}

// next returns the smallest key byte >= from that has a child, with its
// word, or (256, 0): `for kb, w := n.next(0); kb < 256; kb, w =
// n.next(kb + 1)` walks the children in ascending key-byte order, which
// is radix order — what a scan needs, and what makes every node laid out
// from such a walk a function of its contents.
//
//chime:noalloc
func (n *node) next(from int) (kb int, word uint64) {
	if n.hdr.kind >= kindN48 {
		for kb := from; kb < 256; kb++ {
			if w, _ := n.childAt(byte(kb)); w != 0 {
				return kb, w
			}
		}
		return 256, 0
	}
	kb = 256
	for i := 0; i < kindSlots[n.hdr.kind]; i++ {
		off := slotOff(n.hdr.kind, i)
		if b := int(n.img[off+8]); b >= from && b <= kb {
			if w := binary.LittleEndian.Uint64(n.img[off : off+8]); w != 0 {
				kb, word = b, w
			}
		}
	}
	return kb, word
}

// pickFreeSlot returns the first slot of a Node4/16/48 whose child word
// is 0, or -1 when the node is full.
//
//chime:noalloc
func (n *node) pickFreeSlot() int {
	for i := 0; i < kindSlots[n.hdr.kind]; i++ {
		if n.word(i) == 0 {
			return i
		}
	}
	return -1
}

// encodeNode lays a node of kind hdr.kind out in img (nodeSize bytes):
// the header, then the children of src (nil for none) and the extra
// slots — an extra replaces src's child under the same key byte — in
// ascending key-byte order, so the image is a function of the node's
// contents and never of how they were collected.
func encodeNode(img []byte, hdr header, src *node, extra ...slot) {
	var words [256]uint64
	if src != nil {
		for kb, w := src.next(0); kb < 256; kb, w = src.next(kb + 1) {
			words[kb] = w
		}
	}
	for _, s := range extra {
		words[s.keyByte] = s.child
	}
	clear(img)
	encodeHeader(img, hdr)
	i := 0
	for kb, w := range words {
		if w == 0 {
			continue
		}
		at := i
		if hdr.kind == kindN256 {
			at = kb // Node256 slots are keybyte-indexed
		}
		encodeSlot(img, hdr.kind, at, slot{child: w, keyByte: byte(kb)})
		if hdr.kind == kindN48 {
			img[n48IdxOff+kb] = byte(i + 1)
		}
		i++
	}
}

// nodeSet is one owner's fetched nodes: at most one per kind, each with
// an image sized to its kind, refilled by the owner's next fetch of that
// kind. What the owner may rely on is less: a node is good until its
// owner's next fetch of any kind (poisonRecycled holds it to that).
type nodeSet [4]*node

// poisonRecycled makes take scribble over every node its set holds and
// hand out a fresh one, so anything read from a node after its owner
// fetched another is a5a5… (an invalid node at depth 165 with 0xa5…
// children) instead of a plausible neighbour. Only the package's tests
// set it (TestMain).
var poisonRecycled bool

const poisonByte = 0xA5

// take readies the set's node of the given kind for its next fill.
func (s *nodeSet) take(kind int) *node {
	if poisonRecycled {
		for k, n := range s {
			if n != nil {
				for i := range n.img {
					n.img[i] = poisonByte
				}
				n.hdr, s[k] = decodeHeader(n.img), nil
			}
		}
	}
	if s[kind] == nil {
		s[kind] = &node{img: make([]byte, nodeSize(kind))}
	}
	return s[kind]
}

// gone tells the set the CN cache took n: its next fetch of that kind
// gets a new image.
func (s *nodeSet) gone(n *node) {
	for k := range s {
		if s[k] == n {
			s[k] = nil
		}
	}
}

// grow returns the next node kind able to hold count children.
func kindFor(count int) int {
	switch {
	case count <= 4:
		return kindN4
	case count <= 16:
		return kindN16
	case count <= 48:
		return kindN48
	default:
		return kindN256
	}
}

// Index is one SMART tree on the fabric.
type Index struct {
	fabric *dmsim.Fabric
	opts   Options
	root   dmsim.GAddr
	leafSz int

	// mnprog is the MN-side offload program registered at bootstrap;
	// offMN is the MN it is addressed on (the root's MN).
	mnprog dmsim.MNProgramID
	offMN  int
}

// Bootstrap creates an empty SMART tree whose root is a Node256 at
// depth 0 (the root is never replaced, so no root pointer CAS races).
func Bootstrap(f *dmsim.Fabric, opts Options) (*Index, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	ix := &Index{fabric: f, opts: opts, leafSz: 8 + opts.ValueSize}
	boot := f.NewClient()
	root, err := boot.AllocRPC(0, nodeSize(kindN256))
	if err != nil {
		return nil, err
	}
	img := make([]byte, nodeSize(kindN256))
	encodeHeader(img, header{kind: kindN256, valid: true})
	if err := boot.Write(root, img); err != nil {
		return nil, err
	}
	ix.root = root
	ix.mnprog = f.RegisterMNProgram(&mnProgram{ix: ix})
	ix.offMN = int(root.MN)
	return ix, nil
}

// Options returns the index configuration.
func (ix *Index) Options() Options { return ix.opts }

// LeafSize reports the leaf block footprint.
func (ix *Index) LeafSize() int { return ix.leafSz }
