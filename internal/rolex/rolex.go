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

// Leaf remote layout: lock word at 0, a header cell
// [8B chain pointer][2B count unused], then span entry cells
// [1B flags][8B key][val]. Every leaf group is a main leaf plus an
// eagerly allocated overflow buddy at a deterministic address, so a
// search fetches both in one doorbell batch — the 2·span amplification
// the paper reports. Buddies can chain further overflow leaves for
// pathological skew.
type layout struct {
	span    int
	valSize int
	hop     bool
	h       int

	header     nodelayout.Cell
	entryCells []nodelayout.Cell
	allCells   []nodelayout.Cell
	size       int
}

func newLayout(o Options) *layout {
	l := &layout{span: o.SpanSize, valSize: o.ValueSize, hop: o.HopscotchLeaves, h: o.Neighborhood}
	if l.hop && l.h == 0 {
		l.h = 8
	}
	if o.Indirect {
		l.valSize = 8
	}
	entryContent := 1 + 8 + l.valSize
	if l.hop {
		entryContent += 2 // hopscotch bitmap
	}
	contents := []int{8}
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

type entry struct {
	occupied bool
	hopBM    uint16 // hopscotch-leaf mode only
	key      uint64
	val      []byte
}

func (l *layout) encodeEntry(img []byte, i int, e entry, bump bool) {
	c := l.entryCells[i]
	content := make([]byte, c.Content)
	if e.occupied {
		content[0] |= flagOccupied
	}
	off := 1
	if l.hop {
		binary.LittleEndian.PutUint16(content[1:3], e.hopBM)
		off = 3
	}
	binary.LittleEndian.PutUint64(content[off:off+8], e.key)
	copy(content[off+8:], e.val)
	nodelayout.WriteCellContent(img, c, content)
	if bump {
		nodelayout.BumpEV(img, c)
	}
}

func (l *layout) decodeEntry(img []byte, i int) entry {
	c := l.entryCells[i]
	content := nodelayout.ReadCellContent(img, c, make([]byte, 0, c.Content))
	e := entry{occupied: content[0]&flagOccupied != 0}
	off := 1
	if l.hop {
		e.hopBM = binary.LittleEndian.Uint16(content[1:3])
		off = 3
	}
	e.key = binary.LittleEndian.Uint64(content[off : off+8])
	e.val = content[off+8:]
	return e
}

// homeOf returns a key's hopscotch home slot within a leaf.
func (l *layout) homeOf(key uint64) int {
	return int(hopscotch.Hash(key) % uint64(l.span))
}

func (l *layout) setChain(img []byte, chain dmsim.GAddr) {
	content := make([]byte, l.header.Content)
	binary.LittleEndian.PutUint64(content, chain.Pack())
	nodelayout.WriteCellContent(img, l.header, content)
}

func (l *layout) chain(img []byte) dmsim.GAddr {
	content := nodelayout.ReadCellContent(img, l.header, make([]byte, 0, 8))
	return dmsim.UnpackGAddr(binary.LittleEndian.Uint64(content))
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

		img := make([]byte, ix.lay.size)
		mainPlacer := newPlacer(ix.lay, img)
		var buddyImg []byte
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
						buddyImg = make([]byte, ix.lay.size)
						buddyPlacer = newPlacer(ix.lay, buddyImg)
					}
					if !buddyPlacer.place(k, v) {
						return nil, fmt.Errorf("rolex: hopscotch bulk placement failed in group %d", g)
					}
				}
			} else {
				ix.lay.encodeEntry(img, i, entry{occupied: true, key: k, val: v}, false)
			}
			_ = i
		}
		if err := boot.Write(ix.groupMain(g), img); err != nil {
			return nil, err
		}
		if buddyImg != nil {
			if err := boot.Write(ix.groupBuddy(g), buddyImg); err != nil {
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
