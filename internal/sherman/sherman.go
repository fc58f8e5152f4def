// Package sherman implements the Sherman baseline (SIGMOD '22): a
// write-optimized B+ tree on disaggregated memory, enhanced — as the
// CHIME paper's evaluation does — with two-level cache-line versions in
// place of its original (incorrect) bookend versioning.
//
// Sherman is the KV-contiguous baseline: leaf nodes store entries
// contiguously, so the compute-side cache only needs internal nodes
// (low cache consumption), but every point query fetches an entire leaf
// node (read amplification = span size). Writes are fine-grained: an
// update writes one entry plus the combined unlock, not the whole node.
//
// The remote layouts reuse internal/nodelayout, and the fabric is the
// same internal/dmsim pool CHIME runs on, so head-to-head benchmarks
// measure index design, not substrate differences.
package sherman

import (
	"encoding/binary"
	"errors"
	"fmt"

	"chime/internal/dmsim"
	"chime/internal/nodelayout"
	"chime/internal/offroute"
)

// Options configures a Sherman tree.
type Options struct {
	// SpanSize is the number of entries per node. Paper default: 64.
	SpanSize int
	// ValueSize is the inline value size in bytes.
	ValueSize int
	// KeySize models the on-wire key size (>= 8).
	KeySize int
	// Indirect stores an 8-byte pointer per entry with the KV block
	// elsewhere (the Marlin-style variable-length variant).
	Indirect bool
	// LeaseLocks stamps an (owner, expiry) lease into every remote lock
	// so survivors can steal locks from crashed holders (internal/lease).
	// Lease mode bypasses the same-CN lock table: a local handover would
	// hand a waiter the holder's lease.
	LeaseLocks bool
	// LeaseNs is the lease duration in virtual nanoseconds (zero =
	// lease.DefaultNs).
	LeaseNs int64
	// Offload selects the hybrid one-sided/RPC protocol: per-op routing
	// between one-sided traversal and the MN-side program registered at
	// bootstrap (mnprog.go). Zero = pure one-sided (today's behavior).
	Offload offroute.Mode
}

// DefaultOptions returns the paper's default Sherman configuration.
func DefaultOptions() Options {
	return Options{SpanSize: 64, ValueSize: 8, KeySize: 8}
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.SpanSize < 2 || o.SpanSize > 1024 {
		return fmt.Errorf("sherman: SpanSize %d out of [2,1024]", o.SpanSize)
	}
	if !o.Indirect && (o.ValueSize < 1 || o.ValueSize > 4096) {
		return fmt.Errorf("sherman: ValueSize %d out of [1,4096]", o.ValueSize)
	}
	if o.KeySize < 8 || o.KeySize > 256 {
		return fmt.Errorf("sherman: KeySize %d out of [8,256]", o.KeySize)
	}
	if o.LeaseNs < 0 {
		return fmt.Errorf("sherman: negative LeaseNs")
	}
	return nil
}

// ErrNotFound reports an absent key.
var ErrNotFound = offroute.ErrNotFound

var errRestart = errors.New("sherman: restart traversal")

const (
	maxRetries  = 100000
	lineSize    = nodelayout.LineSize
	localWorkNs = 150

	flagValid    = 1 << 0
	flagFenceInf = 1 << 1
	flagOccupied = 1 << 0
	flagLeaf     = 1 << 2
)

// layout is the derived geometry shared by internal and leaf nodes.
// Both node kinds use the same frame: a lock word, a header cell and
// span entry cells; internal entries hold (pivot, child), leaf entries
// hold (key, value).
type layout struct {
	span     int
	keySize  int
	valSize  int // stored bytes per value field: the child or block pointer's 8, or the inline value
	valOff   int // content offset of the value field: 1 + keySize
	indirect bool
	leaf     bool

	header     nodelayout.Cell
	entryCells []nodelayout.Cell
	allCells   []nodelayout.Cell
	size       int
}

// Header content: [1B flags][1B level][2B nkeys][8B fenceLow]
// [8B fenceHigh][8B sibling][8B leftmost]. It always fits one line, so
// the header is read and written where it lies.
const headerContent = 1 + 1 + 2 + 8 + 8 + 8 + 8

// Entry content: [1B flags][keySize key][valSize value]. Flags and the
// key's 8 significant bytes are the first 9 content bytes, which even a
// cell spanning several lines keeps contiguous in its first.
func newLayout(o Options, leaf bool) *layout {
	l := &layout{span: o.SpanSize, keySize: o.KeySize, valSize: o.ValueSize, indirect: o.Indirect, leaf: leaf}
	if !leaf || o.Indirect {
		l.valSize = 8
	}
	l.valOff = 1 + l.keySize
	contents := []int{headerContent}
	for i := 0; i < o.SpanSize; i++ {
		contents = append(contents, l.valOff+l.valSize)
	}
	cells, regionSize := nodelayout.LayoutCells(lineSize, contents)
	l.header = cells[0]
	l.entryCells = cells[1:]
	l.allCells = cells
	l.size = lineSize + regionSize
	return l
}

// header is the decoded node header.
type header struct {
	valid    bool
	fenceInf bool
	level    uint8
	nkeys    int
	fenceLow uint64
	fenceHi  uint64
	sibling  dmsim.GAddr
	leftmost dmsim.GAddr
}

// covers says whether key lies between the node's fences.
func (h header) covers(key uint64) bool {
	return key >= h.fenceLow && (h.fenceInf || key < h.fenceHi)
}

// image is a node-sized buffer one node at a time is fetched into, read
// from and written back out of where it lies. Everything read from it —
// a value above all, which aliases buf — is good until the image's owner
// refills it (DESIGN.md §3): take what you need first. Only a leaf whose
// entry cells span cache lines (inline values past 54 bytes) has its
// values interleaved with version bytes; such a layout gives the image a
// gather area with one valSize slot per entry, and value(i) gathers into
// slot i, so either way a value lives as long as its image and values of
// different slots never share bytes.
type image struct {
	lay  *layout
	buf  []byte
	vals []byte // span*valSize gather area; nil unless leaf entry cells are big
}

func (l *layout) newImage() *image {
	im := &image{lay: l, buf: make([]byte, l.size)}
	if l.leaf && l.entryCells[0].Big {
		im.vals = make([]byte, l.span*l.valSize)
	}
	return im
}

// poisonRecycled makes recycle scribble over the image it is handed and
// return a fresh one, so anything still read through the old image after
// its owner moved on to the next node is a5a5… instead of that node's
// plausible bytes; descent.begin does the same to the previous walk's
// path. Only the package's tests set it (TestMain).
var poisonRecycled bool

const poisonByte = 0xA5

// recycle readies an owner's image for its next fill; im may be nil (the
// owner's first). Every fill goes through here.
func (l *layout) recycle(im *image) *image {
	if im == nil {
		return l.newImage()
	}
	if poisonRecycled {
		poison(im.buf)
		poison(im.vals)
		return l.newImage()
	}
	return im
}

func poison(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}

// check validates the version bytes of a whole fetched node.
func (im *image) check() error {
	return nodelayout.CheckVersions(im.buf, 0, im.lay.allCells)
}

// body is what a node read fetches and a node write sends: everything
// but the lock word's line.
func (im *image) body() []byte { return im.buf[lineSize:] }

// cell is slot i's bytes, version byte included: what an entry write
// sends.
func (im *image) cell(i int) []byte {
	c := im.lay.entryCells[i]
	return im.buf[c.Off:c.End()]
}

func (im *image) setHeader(h header) {
	p := im.buf[im.lay.header.Off+1:][:headerContent]
	p[0] = 0
	if h.valid {
		p[0] |= flagValid
	}
	if h.fenceInf {
		p[0] |= flagFenceInf
	}
	p[1] = h.level
	binary.LittleEndian.PutUint16(p[2:4], uint16(h.nkeys))
	binary.LittleEndian.PutUint64(p[4:12], h.fenceLow)
	binary.LittleEndian.PutUint64(p[12:20], h.fenceHi)
	binary.LittleEndian.PutUint64(p[20:28], h.sibling.Pack())
	binary.LittleEndian.PutUint64(p[28:36], h.leftmost.Pack())
}

// header decodes the node header straight into a value.
//
//chime:noalloc
func (im *image) header() header {
	p := im.buf[im.lay.header.Off+1:][:headerContent]
	h := header{
		valid:    p[0]&flagValid != 0,
		fenceInf: p[0]&flagFenceInf != 0,
		level:    p[1],
		nkeys:    int(binary.LittleEndian.Uint16(p[2:4])),
		fenceLow: binary.LittleEndian.Uint64(p[4:12]),
		fenceHi:  binary.LittleEndian.Uint64(p[12:20]),
		sibling:  dmsim.UnpackGAddr(binary.LittleEndian.Uint64(p[20:28])),
		leftmost: dmsim.UnpackGAddr(binary.LittleEndian.Uint64(p[28:36])),
	}
	if h.nkeys > im.lay.span {
		h.nkeys = im.lay.span
	}
	return h
}

// slot reads slot i's occupancy and key in place.
//
//chime:noalloc
func (im *image) slot(i int) (occupied bool, key uint64) {
	p := im.buf[im.lay.entryCells[i].Off+1:]
	return p[0]&flagOccupied != 0, binary.LittleEndian.Uint64(p[1:9])
}

// value returns slot i's valSize value bytes (the block pointer when
// indirect). It aliases the image: see image.
//
//chime:noalloc
func (im *image) value(i int) []byte {
	lay := im.lay
	c := lay.entryCells[i]
	if !c.Big {
		v := c.Off + 1 + lay.valOff
		return im.buf[v : v+lay.valSize : v+lay.valSize]
	}
	v := im.vals[i*lay.valSize : (i+1)*lay.valSize : (i+1)*lay.valSize]
	nodelayout.ReadCellContentAt(im.buf, c, lay.valOff, v)
	return v
}

// child returns the child address in slot i of an internal node. The
// word is gathered onto the stack: an internal image has no gather area,
// and wide keys make its cells span lines too.
//
//chime:noalloc
func (im *image) child(i int) dmsim.GAddr {
	var w [8]byte
	nodelayout.ReadCellContentAt(im.buf, im.lay.entryCells[i], im.lay.valOff, w[:])
	return ptrOf(w[:])
}

// ptrOf unpacks the address an 8-byte value field holds: a child, or an
// indirect entry's KV block.
func ptrOf(v []byte) dmsim.GAddr {
	return dmsim.UnpackGAddr(binary.LittleEndian.Uint64(v[:8]))
}

// find is the slot search every leaf operation starts with: the slot
// holding key (-1 when absent) and the first unoccupied slot seen before
// it (-1 when none), which is the first free slot of the leaf whenever
// the key is absent.
//
//chime:noalloc
func (im *image) find(key uint64) (slot, free int) {
	free = -1
	for i := 0; i < im.lay.span; i++ {
		occupied, k := im.slot(i)
		if occupied && k == key {
			return i, free
		}
		if !occupied && free < 0 {
			free = i
		}
	}
	return -1, free
}

// setEntry stores (key, val) in slot i in place; bump also increments the
// cell's entry-level version (an entry write; a node write bumps NV
// instead). val may be shorter than valSize (zero-padded, as the key is
// beyond its 8 bytes) and may alias this or another image, another
// slot's decoded value included: it is copied before anything else of
// the slot's value field is touched.
//
//chime:noalloc
func (im *image) setEntry(i int, key uint64, val []byte, bump bool) {
	lay := im.lay
	c := lay.entryCells[i]
	p := im.buf[c.Off+1:]
	p[0] = flagOccupied
	binary.LittleEndian.PutUint64(p[1:9], key)
	nodelayout.ZeroCellContentAt(im.buf, c, 9, lay.keySize-8)
	if len(val) > lay.valSize {
		val = val[:lay.valSize]
	}
	nodelayout.WriteCellContentAt(im.buf, c, lay.valOff, val)
	nodelayout.ZeroCellContentAt(im.buf, c, lay.valOff+len(val), lay.valSize-len(val))
	if bump {
		nodelayout.BumpEV(im.buf, c)
	}
}

// setChild stores (key, child address) in slot i: an internal node's
// routing entry.
func (im *image) setChild(i int, key uint64, child dmsim.GAddr) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], child.Pack())
	im.setEntry(i, key, w[:], false)
}

// clearEntry empties slot i: every content byte zero.
//
//chime:noalloc
func (im *image) clearEntry(i int, bump bool) {
	c := im.lay.entryCells[i]
	nodelayout.ZeroCellContentAt(im.buf, c, 0, c.Content)
	if bump {
		nodelayout.BumpEV(im.buf, c)
	}
}

// bumpNV increments the node-level version across the image (a node
// write).
func (im *image) bumpNV() { nodelayout.BumpNV(im.buf, im.lay.allCells) }

// Index is one Sherman tree on the fabric.
type Index struct {
	fabric *dmsim.Fabric
	opts   Options
	leaf   *layout
	inner  *layout
	super  dmsim.GAddr

	// mnprog is the MN-side offload program registered at bootstrap;
	// offMN is the MN it is addressed on (the root's MN).
	mnprog dmsim.MNProgramID
	offMN  int
}

// Bootstrap creates an empty tree: a super block plus a root leaf.
func Bootstrap(f *dmsim.Fabric, opts Options) (*Index, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	ix := &Index{
		fabric: f,
		opts:   opts,
		leaf:   newLayout(opts, true),
		inner:  newLayout(opts, false),
	}
	boot := f.NewClient()
	super, err := boot.AllocRPC(0, 8)
	if err != nil {
		return nil, err
	}
	ix.super = super
	leafAddr, err := boot.AllocRPC(0, ix.leaf.size)
	if err != nil {
		return nil, err
	}
	root := ix.leaf.newImage()
	root.setHeader(header{valid: true, fenceInf: true, level: 0})
	if err := boot.Write(leafAddr, root.buf); err != nil {
		return nil, err
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], packSuper(leafAddr, 0))
	if err := boot.Write(super, b[:]); err != nil {
		return nil, err
	}
	ix.mnprog = f.RegisterMNProgram(&mnProgram{ix: ix})
	ix.offMN = int(super.MN)
	return ix, nil
}

// Attach binds to a tree that already exists on the fabric — a
// warm-started persistent fabric restored from a folio snapshot+log.
// No remote writes are issued; opts must match the bootstrap options.
func Attach(f *dmsim.Fabric, opts Options, super dmsim.GAddr) (*Index, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	ix := &Index{
		fabric: f,
		opts:   opts,
		leaf:   newLayout(opts, true),
		inner:  newLayout(opts, false),
		super:  super,
	}
	ix.mnprog = f.RegisterMNProgram(&mnProgram{ix: ix})
	ix.offMN = int(super.MN)
	return ix, nil
}

// Super returns the super block's address for persistence metadata.
func (ix *Index) Super() dmsim.GAddr { return ix.super }

// Options returns the tree's configuration.
func (ix *Index) Options() Options { return ix.opts }

// LeafNodeSize returns the encoded leaf footprint in bytes.
func (ix *Index) LeafNodeSize() int { return ix.leaf.size }

// InternalNodeSize returns the encoded internal-node footprint.
func (ix *Index) InternalNodeSize() int { return ix.inner.size }

func packSuper(addr dmsim.GAddr, level uint8) uint64 {
	return dmsim.PackTagged(addr, level)
}

func unpackSuper(w uint64) (dmsim.GAddr, uint8) {
	return dmsim.UnpackTagged(w)
}

// Census counts the tree's nodes per level (leaves first) and the keys
// each leaf holds, in chain order, walking each level's sibling chain
// from its leftmost node. It reads MN memory out of band (Fabric.Peek):
// no verb, no virtual time, no client — a census through verbs would move
// the NIC timeline and the client numbering of the run it describes. The
// tree must be quiescent.
func (ix *Index) Census() (nodes []int, leafKeys []int, err error) {
	peek := func(a dmsim.GAddr, buf []byte) error {
		return ix.fabric.Peek(a, buf) //lint:allow verbgate a census must not perturb the virtual timeline it describes
	}
	var w [8]byte
	if err := peek(ix.super, w[:]); err != nil {
		return nil, nil, err
	}
	first, rootLevel := unpackSuper(binary.LittleEndian.Uint64(w[:]))
	nodes = make([]int, int(rootLevel)+1)
	inner, leaf := ix.inner.newImage(), ix.leaf.newImage()
	for level := int(rootLevel); level >= 0; level-- {
		im := inner
		if level == 0 {
			im = leaf
		}
		var below dmsim.GAddr
		for addr := first; !addr.IsNil(); nodes[level]++ {
			if err := peek(addr, im.buf); err != nil {
				return nil, nil, err
			}
			hdr := im.header()
			if addr == first {
				below = hdr.leftmost
			}
			if level == 0 {
				keys := 0
				for i := 0; i < ix.leaf.span; i++ {
					if occupied, _ := im.slot(i); occupied {
						keys++
					}
				}
				leafKeys = append(leafKeys, keys)
			}
			addr = hdr.sibling
		}
		first = below
	}
	return nodes, leafKeys, nil
}
