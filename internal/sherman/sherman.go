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
	"sort"

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
	valSize  int
	indirect bool

	header     nodelayout.Cell
	entryCells []nodelayout.Cell
	allCells   []nodelayout.Cell
	size       int
}

// Header content: [1B flags][1B level][2B nkeys][8B fenceLow]
// [8B fenceHigh][8B sibling][8B leftmost].
const headerContent = 1 + 1 + 2 + 8 + 8 + 8 + 8

func newLayout(o Options, leaf bool) *layout {
	l := &layout{span: o.SpanSize, keySize: o.KeySize, valSize: o.ValueSize, indirect: o.Indirect}
	if o.Indirect {
		l.valSize = 8
	}
	entryContent := 1 + l.keySize + 8 // flags + key + child/value word
	if leaf && !o.Indirect {
		entryContent = 1 + l.keySize + l.valSize
	}
	contents := []int{headerContent}
	for i := 0; i < o.SpanSize; i++ {
		contents = append(contents, entryContent)
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

func (l *layout) encodeHeader(img []byte, h header) {
	content := make([]byte, l.header.Content)
	if h.valid {
		content[0] |= flagValid
	}
	if h.fenceInf {
		content[0] |= flagFenceInf
	}
	content[1] = h.level
	binary.LittleEndian.PutUint16(content[2:4], uint16(h.nkeys))
	binary.LittleEndian.PutUint64(content[4:12], h.fenceLow)
	binary.LittleEndian.PutUint64(content[12:20], h.fenceHi)
	binary.LittleEndian.PutUint64(content[20:28], h.sibling.Pack())
	binary.LittleEndian.PutUint64(content[28:36], h.leftmost.Pack())
	nodelayout.WriteCellContent(img, l.header, content)
}

func (l *layout) decodeHeader(img []byte) header {
	content := nodelayout.ReadCellContent(img, l.header, make([]byte, 0, l.header.Content))
	h := header{
		valid:    content[0]&flagValid != 0,
		fenceInf: content[0]&flagFenceInf != 0,
		level:    content[1],
		nkeys:    int(binary.LittleEndian.Uint16(content[2:4])),
		fenceLow: binary.LittleEndian.Uint64(content[4:12]),
		fenceHi:  binary.LittleEndian.Uint64(content[12:20]),
		sibling:  dmsim.UnpackGAddr(binary.LittleEndian.Uint64(content[20:28])),
		leftmost: dmsim.UnpackGAddr(binary.LittleEndian.Uint64(content[28:36])),
	}
	if h.nkeys > l.span {
		h.nkeys = l.span
	}
	return h
}

// entry is one decoded slot: an (occupied, key, word/value) triple. For
// internal nodes word is the packed child address; for leaves it is the
// value bytes (or block pointer).
type entry struct {
	occupied bool
	key      uint64
	val      []byte
}

func (l *layout) encodeEntry(img []byte, i int, e entry, bump bool) {
	c := l.entryCells[i]
	content := make([]byte, c.Content)
	if e.occupied {
		content[0] |= flagOccupied
	}
	binary.LittleEndian.PutUint64(content[1:9], e.key)
	copy(content[1+l.keySize:], e.val)
	nodelayout.WriteCellContent(img, c, content)
	if bump {
		nodelayout.BumpEV(img, c)
	}
}

func (l *layout) decodeEntry(img []byte, i int) entry {
	c := l.entryCells[i]
	content := nodelayout.ReadCellContent(img, c, make([]byte, 0, c.Content))
	return entry{
		occupied: content[0]&flagOccupied != 0,
		key:      binary.LittleEndian.Uint64(content[1:9]),
		val:      content[1+l.keySize:],
	}
}

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
	img := make([]byte, ix.leaf.size)
	ix.leaf.encodeHeader(img, header{valid: true, fenceInf: true, level: 0})
	if err := boot.Write(leafAddr, img); err != nil {
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

// sortEntries returns the occupied entries of a decoded node sorted by
// key; used by splits and scans (Sherman leaves are slot-allocated, not
// kept sorted — an insert touches one slot, preserving the fine-grained
// write property).
func sortEntries(es []entry) []entry {
	out := make([]entry, 0, len(es))
	for _, e := range es {
		if e.occupied {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}
