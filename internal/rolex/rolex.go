package rolex

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"chime/internal/dmsim"
	"chime/internal/hopscotch"
	"chime/internal/locktable"
	"chime/internal/nodelayout"
	"chime/internal/obs"
	"chime/internal/offroute"
)

// Options configures a ROLEX index.
type Options struct {
	// SpanSize is the number of entries per leaf. Paper default: 16.
	SpanSize int
	// Epsilon is the model error bound. Paper default: equal to the
	// span size.
	Epsilon int
	// ValueSize is the inline value size in bytes.
	ValueSize int
	// Indirect stores block pointers in leaves (ROLEX-Indirect).
	Indirect bool

	// HopscotchLeaves turns each leaf into a hopscotch hash table so
	// point queries fetch H-entry neighborhoods instead of whole
	// leaves. This is "CHIME-Learned" from the paper's §5.3 factor
	// analysis: the hopscotch-leaf technique applied to the learned
	// index. Searches still touch both the main leaf and its overflow
	// buddy, which is why the paper prefers the B+-tree hybrid.
	HopscotchLeaves bool
	// Neighborhood is the hopscotch neighborhood size (default 8).
	Neighborhood int

	// LeaseLocks stamps an (owner, expiry) lease into every remote lock
	// so survivors can steal locks from crashed holders (internal/lease).
	// Lease mode bypasses the same-CN lock table: a local handover would
	// hand a waiter the holder's lease.
	LeaseLocks bool
	// LeaseNs is the lease duration in virtual nanoseconds (zero =
	// lease.DefaultNs).
	LeaseNs int64

	// Offload selects the hybrid one-sided/RPC protocol: per-op routing
	// between one-sided group reads and the MN-side program registered
	// at build time (mnprog.go). The PLR model stays CN-side — the
	// client ships the predicted group as the verb argument. Zero =
	// pure one-sided (today's behavior).
	Offload offroute.Mode
}

// DefaultOptions returns the paper's default ROLEX configuration.
func DefaultOptions() Options {
	return Options{SpanSize: 16, Epsilon: 16, ValueSize: 8}
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.SpanSize < 2 || o.SpanSize > 1024 {
		return fmt.Errorf("rolex: SpanSize %d out of [2,1024]", o.SpanSize)
	}
	if o.Epsilon < 1 {
		return fmt.Errorf("rolex: Epsilon %d < 1", o.Epsilon)
	}
	if !o.Indirect && (o.ValueSize < 1 || o.ValueSize > 4096) {
		return fmt.Errorf("rolex: ValueSize %d out of [1,4096]", o.ValueSize)
	}
	if o.LeaseNs < 0 {
		return fmt.Errorf("rolex: negative LeaseNs")
	}
	if o.HopscotchLeaves {
		h := o.Neighborhood
		if h == 0 {
			h = 8
		}
		if h < 1 || h > 16 || h > o.SpanSize || o.SpanSize%h != 0 {
			return fmt.Errorf("rolex: Neighborhood %d incompatible with span %d", h, o.SpanSize)
		}
	}
	return nil
}

// ErrNotFound reports an absent key.
var ErrNotFound = offroute.ErrNotFound

const (
	maxRetries = 100000
	lineSize   = nodelayout.LineSize

	flagOccupied = 1 << 0
)

// Leaf remote layout: lock word at 0, a header cell [8B chain pointer],
// then span entry cells [1B flags][2B hopscotch bitmap, hopscotch-leaf
// mode only][8B key][val]. Every leaf group is a main leaf plus an
// eagerly allocated overflow buddy at a deterministic address, so a
// search fetches both in one doorbell batch — the 2·span amplification
// the paper reports. Buddies can chain further overflow leaves for
// pathological skew.
type layout struct {
	span    int
	valSize int
	keyOff  int // content offset of the key: 1, or 3 behind the bitmap
	valOff  int // content offset of the value: keyOff + 8
	hop     bool
	h       int

	header     nodelayout.Cell
	entryCells []nodelayout.Cell
	allCells   []nodelayout.Cell
	size       int
}

func newLayout(o Options) *layout {
	l := &layout{span: o.SpanSize, valSize: o.ValueSize, keyOff: 1, hop: o.HopscotchLeaves, h: o.Neighborhood}
	if l.hop && l.h == 0 {
		l.h = 8
	}
	if o.Indirect {
		l.valSize = 8
	}
	if l.hop {
		l.keyOff = 3 // hopscotch bitmap
	}
	l.valOff = l.keyOff + 8
	contents := []int{8}
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

// image is a leaf-sized buffer one leaf at a time is fetched into, read
// from and written back out of where it lies. Everything read from it —
// a value above all, which aliases buf — is good until the image's owner
// refills it (DESIGN.md §3): take what you need first. Flags, bitmap and
// key sit in the first 11 content bytes, which even a cell spanning
// several lines keeps contiguous in its first; only the value of such a
// cell (inline values past 52 bytes) is interleaved with version bytes,
// and value(i) gathers it into slot i of the image's own gather area, so
// either way a value lives as long as its image and values of different
// slots never share bytes.
type image struct {
	lay  *layout
	buf  []byte
	vals []byte // span*valSize gather area; nil unless entry cells are big
}

func (l *layout) newImage() *image {
	im := &image{lay: l, buf: make([]byte, l.size)}
	if l.entryCells[0].Big {
		im.vals = make([]byte, l.span*l.valSize)
	}
	return im
}

// poisonRecycled makes recycle scribble over the image it is handed and
// return a fresh one, so anything still read through the old image after
// its owner moved on to the next leaf is a5a5… instead of that leaf's
// plausible bytes. Only the package's tests set it (TestMain).
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

// check validates the version bytes of a whole fetched leaf.
func (im *image) check() error {
	return nodelayout.CheckVersions(im.buf, 0, im.lay.allCells)
}

// body is what a leaf read fetches: everything but the lock word's line.
func (im *image) body() []byte { return im.buf[lineSize:] }

// cell is slot i's bytes, version byte included: what an entry write
// sends.
func (im *image) cell(i int) []byte {
	c := im.lay.entryCells[i]
	return im.buf[c.Off:c.End()]
}

// slot reads slot i's occupancy, hopscotch bitmap (zero outside
// hopscotch-leaf mode) and key in place.
//
//chime:noalloc
func (im *image) slot(i int) (occupied bool, hopBM uint16, key uint64) {
	p := im.buf[im.lay.entryCells[i].Off+1:]
	if im.lay.hop {
		hopBM = binary.LittleEndian.Uint16(p[1:3])
	}
	k := im.lay.keyOff
	return p[0]&flagOccupied != 0, hopBM, binary.LittleEndian.Uint64(p[k : k+8])
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

// find is the slot search of every leaf operation: the slot holding key
// (-1 when absent) and the first unoccupied slot seen before it (-1 when
// none), which is the leaf's first free slot whenever the key is absent.
//
//chime:noalloc
func (im *image) find(key uint64) (slot, free int) {
	free = -1
	for i := 0; i < im.lay.span; i++ {
		occupied, _, k := im.slot(i)
		if occupied && k == key {
			return i, free
		}
		if !occupied && free < 0 {
			free = i
		}
	}
	return -1, free
}

// put stores (key, val) in slot i and marks it occupied, in place; the
// slot's hopscotch bitmap — which tracks the keys homed at the slot, not
// the key stored in it — is left alone. bump also increments the cell's
// entry-level version (so for the other field writes below). val may be
// shorter than valSize (zero-padded) and may alias this or another
// image, another slot's decoded value included (a hopscotch move): it is
// copied before anything else of the slot's value field is touched.
func (im *image) put(i int, key uint64, val []byte, bump bool) {
	lay := im.lay
	c := lay.entryCells[i]
	p := im.buf[c.Off+1:]
	p[0] = flagOccupied
	binary.LittleEndian.PutUint64(p[lay.keyOff:lay.keyOff+8], key)
	if len(val) > lay.valSize {
		val = val[:lay.valSize]
	}
	nodelayout.WriteCellContentAt(im.buf, c, lay.valOff, val)
	nodelayout.ZeroCellContentAt(im.buf, c, lay.valOff+len(val), lay.valSize-len(val))
	if bump {
		nodelayout.BumpEV(im.buf, c)
	}
}

// vacate clears slot i's occupancy; bitmap, key and value keep their
// bytes.
func (im *image) vacate(i int, bump bool) {
	c := im.lay.entryCells[i]
	im.buf[c.Off+1] = 0
	if bump {
		nodelayout.BumpEV(im.buf, c)
	}
}

// setHopBM overwrites slot i's hopscotch bitmap (hopscotch-leaf mode).
func (im *image) setHopBM(i int, bm uint16, bump bool) {
	c := im.lay.entryCells[i]
	binary.LittleEndian.PutUint16(im.buf[c.Off+2:c.Off+4], bm)
	if bump {
		nodelayout.BumpEV(im.buf, c)
	}
}

// homeOf returns a key's hopscotch home slot within a leaf.
func (l *layout) homeOf(key uint64) int {
	return int(hopscotch.Hash(key) % uint64(l.span))
}

// The header cell's 8 content bytes always fit one line: the chain
// pointer is read and written where it lies.

func (im *image) setChain(chain dmsim.GAddr) {
	binary.LittleEndian.PutUint64(im.buf[im.lay.header.Off+1:], chain.Pack())
}

func (im *image) chain() dmsim.GAddr {
	return ptrOf(im.buf[im.lay.header.Off+1:])
}

// ptrOf unpacks the address an 8-byte field holds: a chain pointer, or an
// indirect entry's KV block.
func ptrOf(v []byte) dmsim.GAddr {
	return dmsim.UnpackGAddr(binary.LittleEndian.Uint64(v[:8]))
}

// leafSet is the scratch one operation reads a group's leaves into:
// main, buddy, then the overflow chain in order. The images are reused
// by the owner's next operation.
type leafSet struct {
	imgs   []*image
	leaves []groupLeaf
}

// groupLeaf is one fetched leaf of the group being worked on: where it
// lives, its image, and its first free slot (-1 when full) if a find
// over it came up empty.
type groupLeaf struct {
	addr dmsim.GAddr
	im   *image
	free int
}

// reset forgets the previous group's leaves.
func (s *leafSet) reset() { s.leaves = s.leaves[:0] }

// next readies the image the group's next leaf, at addr, is read into
// and lists the leaf.
func (s *leafSet) next(lay *layout, addr dmsim.GAddr) *image {
	n := len(s.leaves)
	if n == len(s.imgs) {
		s.imgs = append(s.imgs, nil)
	}
	s.imgs[n] = lay.recycle(s.imgs[n])
	s.leaves = append(s.leaves, groupLeaf{addr: addr, im: s.imgs[n], free: -1})
	return s.imgs[n]
}

// Index is one ROLEX index: the remote leaf-group array plus the
// CN-side model (PLR segments and leaf fence keys, both counted as
// cache consumption).
type Index struct {
	fabric *dmsim.Fabric
	opts   Options
	lay    *layout

	base      dmsim.GAddr // leaf group array: group i = 2 leaves at base + i*2*size
	numGroups int
	model     *PLR
	fences    []uint64 // fences[i] = smallest trained key of group i

	// mnprog is the MN-side offload program registered at build time;
	// offMN is the MN it is addressed on (the group array's MN).
	mnprog dmsim.MNProgramID
	offMN  int
}

// Build bulk-loads a ROLEX index from keys and their values. Keys are
// sorted internally; values[i] must correspond to keys[i] (nil values
// load a zero value of the configured size). Models are trained once,
// per the CHIME evaluation's pre-training setup.
func Build(f *dmsim.Fabric, opts Options, keys []uint64, values map[uint64][]byte) (*Index, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("rolex: Build requires at least one key (models are pre-trained)")
	}
	sorted := append([]uint64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] == sorted[i] {
			return nil, fmt.Errorf("rolex: duplicate key %#x", sorted[i])
		}
	}

	ix := &Index{fabric: f, opts: opts, lay: newLayout(opts)}
	model, err := TrainPLR(sorted, opts.Epsilon)
	if err != nil {
		return nil, err
	}
	ix.model = model

	span := opts.SpanSize
	ix.numGroups = (len(sorted) + span - 1) / span
	boot := f.NewClient()
	groupBytes := 2 * ix.lay.size
	base, err := boot.AllocRPC(0, ix.numGroups*groupBytes)
	if err != nil {
		return nil, err
	}
	ix.base = base

	ix.fences = make([]uint64, ix.numGroups)
	for g := 0; g < ix.numGroups; g++ {
		lo := g * span
		hi := lo + span
		if hi > len(sorted) {
			hi = len(sorted)
		}
		ix.fences[g] = sorted[lo]

		img := ix.lay.newImage()
		mainPlacer := newPlacer(img)
		var buddyImg *image
		var buddyPlacer *placer
		for i, k := range sorted[lo:hi] {
			v := values[k]
			if v == nil {
				v = make([]byte, ix.lay.valSize)
			}
			v, err = prepareValue(boot, f, opts, ix.lay, k, v)
			if err != nil {
				return nil, err
			}
			if ix.lay.hop {
				// A fully packed group exceeds hopscotch's maximum load
				// factor; keys that cannot hop into the main leaf spill
				// into the overflow buddy, which lookups fetch anyway.
				if !mainPlacer.place(k, v) {
					if buddyPlacer == nil {
						buddyImg = ix.lay.newImage()
						buddyPlacer = newPlacer(buddyImg)
					}
					if !buddyPlacer.place(k, v) {
						return nil, fmt.Errorf("rolex: hopscotch bulk placement failed in group %d", g)
					}
				}
			} else {
				img.put(i, k, v, false)
			}
		}
		if err := boot.Write(ix.groupMain(g), img.buf); err != nil {
			return nil, err
		}
		if buddyImg != nil {
			if err := boot.Write(ix.groupBuddy(g), buddyImg.buf); err != nil {
				return nil, err
			}
		}
		// Otherwise the overflow buddy starts empty (zero image is valid).
	}
	ix.mnprog = f.RegisterMNProgram(&mnProgram{ix: ix})
	ix.offMN = int(base.MN)
	return ix, nil
}

func prepareValue(dc *dmsim.Client, f *dmsim.Fabric, opts Options, lay *layout, key uint64, value []byte) ([]byte, error) {
	if !opts.Indirect {
		if len(value) != opts.ValueSize {
			return nil, fmt.Errorf("rolex: value is %dB, index stores %dB", len(value), opts.ValueSize)
		}
		return value, nil
	}
	block := make([]byte, 8+len(value))
	binary.LittleEndian.PutUint64(block[:8], key)
	copy(block[8:], value)
	// Bulk load allocates blocks straight from the MN.
	addr, err := dc.AllocRPC(0, len(block))
	if err != nil {
		return nil, err
	}
	if err := dc.Write(addr, block); err != nil {
		return nil, err
	}
	ptr := make([]byte, 8)
	binary.LittleEndian.PutUint64(ptr, addr.Pack())
	return ptr, nil
}

// Options returns the index configuration.
func (ix *Index) Options() Options { return ix.opts }

// LeafNodeSize returns one leaf's encoded footprint.
func (ix *Index) LeafNodeSize() int { return ix.lay.size }

// CacheBytes reports the computing-side footprint: PLR segments plus the
// per-group fence keys — what ROLEX keeps on CNs instead of tree nodes.
func (ix *Index) CacheBytes() int64 {
	return ix.model.SizeBytes() + int64(len(ix.fences))*8
}

func (ix *Index) groupMain(g int) dmsim.GAddr {
	return ix.base.Add(uint64(g * 2 * ix.lay.size))
}

func (ix *Index) groupBuddy(g int) dmsim.GAddr {
	return ix.base.Add(uint64(g*2*ix.lay.size + ix.lay.size))
}

// route returns the leaf group a key belongs to: the model predicts a
// rank, and the (CN-cached) fence keys correct it within the ±ε window.
// Routing is deterministic, which is what makes retraining-free inserts
// sound (ROLEX's data-movement constraint).
func (ix *Index) route(key uint64) int {
	pos := ix.model.Predict(key, ix.numGroups*ix.opts.SpanSize)
	g := pos / ix.opts.SpanSize
	if g >= ix.numGroups {
		g = ix.numGroups - 1
	}
	for g > 0 && key < ix.fences[g] {
		g--
	}
	for g+1 < ix.numGroups && key >= ix.fences[g+1] {
		g++
	}
	return g
}

// ComputeNode is ROLEX's per-CN state: the (immutable, shared) model
// plus a local lock table absorbing same-CN group-lock contention.
type ComputeNode struct {
	ix    *Index
	locks *locktable.Table
	mu    sync.Mutex
	obs   obs.IndexInstruments
}

// NewComputeNode returns per-CN state.
func (ix *Index) NewComputeNode() *ComputeNode {
	return &ComputeNode{ix: ix, locks: locktable.New()}
}

// SetObserver attaches an observability sink; clients created afterward
// count torn reads, lock backoffs and overflow-chain hops into it and
// emit per-operation trace spans when the sink traces. Call before
// NewClient. With no sink every instrumented call is a no-op.
func (cn *ComputeNode) SetObserver(s *obs.Sink) {
	cn.obs = obs.ResolveIndex(s)
}

// Client is one ROLEX client; not safe for concurrent use.
type Client struct {
	cn      *ComputeNode
	ix      *Index
	dc      *dmsim.Client
	alloc   *dmsim.ChunkAllocator
	backoff dmsim.Backoff
	obs     obs.IndexInstruments

	// group is where this client reads the leaves of the group it is
	// working on; an image is good until the next operation refills it.
	group leafSet

	// Staging the verbs of one op reuse: the address/buffer lists of a
	// read or write batch, the cells a neighborhood read covers, a scan's
	// in-range slots and the scratch that sorts them, and its indirect KV
	// block.
	addrs     []dmsim.GAddr
	bufs      [][]byte
	covered   []nodelayout.Cell
	scanSlots []offroute.ScanSlot
	slotSort  offroute.SortScratch
	block     []byte
	hopSlots  []int // the two cells a hopscotch-leaf delete rewrites

	// port holds the routed entry points: one-sided vs. MN-side offload
	// per op (offload.go).
	port offroute.Port
}

// NewClient creates a client bound to the compute node.
func (cn *ComputeNode) NewClient() *Client {
	dc := cn.ix.fabric.NewClient()
	dc.SetFlight(cn.obs.Flight.NewFlight(dc.ID()))
	c := &Client{
		cn: cn, ix: cn.ix, dc: dc,
		alloc: dmsim.NewChunkAllocator(dc, int(dc.ID())%cn.ix.fabric.MNs()),
		obs:   cn.obs,
	}
	c.port = c.newPort()
	return c
}

// DM exposes the fabric client for the benchmark harness.
func (c *Client) DM() *dmsim.Client { return c.dc }

// chargeModel charges the CN-side learned-model inference that routes a
// key to its leaf group, labeled as cache-lookup time in the flight
// ledger (model inference is ROLEX's analog of the index-cache probe).
func (c *Client) chargeModel() {
	fl := c.dc.Flight()
	prev := fl.SetPhase(obs.PhaseCacheLookup)
	c.dc.Advance(150)
	fl.SetPhase(prev)
}
