package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"chime/internal/dmsim"
	"chime/internal/hopscotch"
	"chime/internal/locktable"
	"chime/internal/nodecache"
	"chime/internal/nodelayout"
	"chime/internal/obs"
	"chime/internal/offroute"
)

// Index is one CHIME tree living in the memory pool. It is cheap to
// share: it holds only the fabric handle, options, derived layouts and
// the address of the super block (root pointer). Create per-CN state
// with NewComputeNode and per-client handles with ComputeNode.NewClient.
type Index struct {
	fabric *dmsim.Fabric
	opts   Options
	leaf   *leafLayout
	inner  *internalLayout
	super  dmsim.GAddr

	// mnprog is the MN-side offload program registered at bootstrap
	// (mnprog.go); offMN is the MN it is addressed on — the root's MN,
	// where every descent starts.
	mnprog dmsim.MNProgramID
	offMN  int
}

// ErrNotFound reports that a key is absent from the tree.
var ErrNotFound = offroute.ErrNotFound

// errRestart is an internal signal: the current attempt observed a
// structural change (stale cache, half-split, deleted node) and the
// operation must retraverse.
var errRestart = errors.New("core: restart traversal")

// maxRetries bounds optimistic retry loops; exceeding it indicates a
// livelock-grade problem and surfaces as an error rather than a hang.
const maxRetries = 100000

// localWorkNs is the CN-side compute charged per tree operation step
// (hashing, local search) on the virtual clock.
const localWorkNs = 150

// Bootstrap creates a fresh tree on the fabric: a super block holding
// the root pointer and one empty leaf as the root.
func Bootstrap(f *dmsim.Fabric, opts Options) (*Index, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	ix := &Index{
		fabric: f,
		opts:   opts,
		leaf:   newLeafLayout(opts),
		inner:  newInternalLayout(opts),
	}
	boot := f.NewClient()

	super, err := boot.AllocRPC(0, 8)
	if err != nil {
		return nil, fmt.Errorf("core: bootstrap super block: %w", err)
	}
	ix.super = super

	leafAddr, err := boot.AllocRPC(0, ix.leaf.size)
	if err != nil {
		return nil, fmt.Errorf("core: bootstrap root leaf: %w", err)
	}
	im := newLeafImage(ix.leaf)
	im.setAllMeta(leafMeta{valid: true, fenceInf: true})
	if err := boot.Write(leafAddr, im.buf); err != nil {
		return nil, err
	}
	if err := ix.writeSuper(boot, leafAddr, 0); err != nil {
		return nil, err
	}
	ix.mnprog = f.RegisterMNProgram(&mnProgram{ix: ix})
	ix.offMN = int(super.MN)
	return ix, nil
}

// Attach binds to a tree that already exists on the fabric — a
// warm-started persistent fabric whose MN memory was restored from a
// folio snapshot+log. It performs no remote writes: the super block,
// root and all nodes are taken as-is; opts must match the options the
// tree was bootstrapped with (layouts are derived from them).
func Attach(f *dmsim.Fabric, opts Options, super dmsim.GAddr) (*Index, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	ix := &Index{
		fabric: f,
		opts:   opts,
		leaf:   newLeafLayout(opts),
		inner:  newInternalLayout(opts),
		super:  super,
	}
	ix.mnprog = f.RegisterMNProgram(&mnProgram{ix: ix})
	ix.offMN = int(super.MN)
	return ix, nil
}

// Super returns the super block's address, the one root pointer a
// re-attaching compute node needs (persisted across restarts via
// dmsim.Fabric.SetPersistMeta).
func (ix *Index) Super() dmsim.GAddr { return ix.super }

// Options returns the tree's configuration.
func (ix *Index) Options() Options { return ix.opts }

// LeafNodeSize returns the encoded size of one leaf node in bytes.
func (ix *Index) LeafNodeSize() int { return ix.leaf.size }

// InternalNodeSize returns the encoded size of one internal node.
func (ix *Index) InternalNodeSize() int { return ix.inner.size }

// The super block is a single CAS-able word: level in the top byte, the
// root node's MN-0 offset in the low 56 bits. Root nodes are always
// allocated on MN 0 so the whole root identity fits one atomic word.
func packSuper(addr dmsim.GAddr, level uint8) uint64 {
	return dmsim.PackTagged(addr, level)
}

func unpackSuper(w uint64) (dmsim.GAddr, uint8) {
	return dmsim.UnpackTagged(w)
}

func (ix *Index) writeSuper(c *dmsim.Client, root dmsim.GAddr, level uint8) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], packSuper(root, level))
	return c.Write(ix.super, b[:])
}

// ComputeNode models one compute node: the internal-node cache and the
// hotspot buffer shared by all of its clients (§2.2, §4.3).
type ComputeNode struct {
	ix      *Index
	cache   *nodecache.Cache[*internalImage] // every client routes on its images; it never writes one
	hotspot *hotspotBuffer
	locks   *locktable.Table
	obs     obs.IndexInstruments

	// splits counts the leaf splits this CN's clients have in flight, up
	// to the parent's update (descent.dropParent).
	splits atomic.Int32
}

// SetObserver attaches an observability sink; clients created afterward
// count retries, torn reads, lock backoffs, sibling chases, splits and
// merges into it, and emit per-operation trace spans when the sink
// traces. Call before NewClient, from a single goroutine. With no sink
// every instrumented call is a no-op.
func (cn *ComputeNode) SetObserver(s *obs.Sink) {
	cn.obs = obs.ResolveIndex(s)
}

// NewComputeNode creates CN-shared state with the given byte budgets for
// the internal-node cache and the hotspot buffer. A zero hotspot budget,
// or Options.SpeculativeRead=false, disables speculative reads.
func (ix *Index) NewComputeNode(cacheBytes, hotspotBytes int64) *ComputeNode {
	if !ix.opts.SpeculativeRead {
		hotspotBytes = 0
	}
	return &ComputeNode{
		ix:      ix,
		cache:   newNodeCache(cacheBytes),
		hotspot: newHotspotBuffer(hotspotBytes, ix.leaf.span),
		locks:   locktable.New(),
	}
}

// cacheShards stripes the node cache: one mutex would serialize every
// traversal of every client goroutine on the CN.
const cacheShards = 16

// newNodeCache returns a node cache of budget encoded node bytes, the
// unit the paper reports cache consumption in.
func newNodeCache(budget int64) *nodecache.Cache[*internalImage] {
	return nodecache.New[*internalImage](budget, cacheShards)
}

// CacheStats is a snapshot of the node cache's behaviour and footprint.
type CacheStats = nodecache.Stats

// CacheStats reports the CN's internal-node cache counters.
func (cn *ComputeNode) CacheStats() CacheStats { return cn.cache.Stats() }

// HotspotStats reports the CN's hotspot-buffer counters.
func (cn *ComputeNode) HotspotStats() HotspotStats { return cn.hotspot.stats() }

// Client is one client (CPU core / coroutine) on a compute node. Not
// safe for concurrent use: each simulated client owns one goroutine.
type Client struct {
	cn    *ComputeNode
	ix    *Index
	dc    *dmsim.Client
	alloc *dmsim.ChunkAllocator

	rootAddr  dmsim.GAddr
	rootLevel uint8

	backoff dmsim.Backoff

	// Instruments resolved from the CN's sink at construction; all
	// fields are nil-safe no-ops without a sink.
	obs obs.IndexInstruments

	// port holds the routed entry points: one-sided vs. MN-side offload
	// per op (offload.go).
	port offroute.Port

	// Scan state (scan.go), made on the first scan and reused by every
	// later one: the window of whole-leaf reads and the leaves the cached
	// parent named for it, the arrived leaf's in-range slots and the
	// scratch that sorts them, and on the indirect path its posted block
	// reads and their buffers.
	scanWin    offroute.ScanWindow[leafRead]
	scanAhead  []dmsim.GAddr
	scanSlots  []offroute.ScanSlot
	scanSort   offroute.SortScratch
	scanPends  []*dmsim.Completion
	scanBlocks []byte

	// Scratch of the leaf writes (write.go), which apply one cycle at a
	// time: the changed entries and their write-back ranges (a window's
	// one or two, a node-granular cycle's merged cells), the hop plan and
	// the ops leaving a cycle.
	changed []int
	wr      [2]byteRange
	ranges  []byteRange
	moves   []hopscotch.Move
	wLeft   []*writeOp

	// db stages every doorbell batch this client posts and lockBuf every
	// lock word it writes: verbs copy their data at post time, so nothing
	// of either outlives the post.
	db      doorbell
	lockBuf [8]byte

	// placed is the key this client last placed at each level, by which a
	// split tells an ascending run (nodelayout.SplitPoint); splitKVs the
	// resident entries of the leaf being split (split.go).
	placed   nodelayout.Placed
	splitKVs []kvPair

	// innerFree holds the internal-node images this client fetched and
	// the cache declined, for its next fetches (getInternal).
	innerFree []*internalImage

	// desc is the descent the scan path steps to its leaf (descent.go);
	// sop the one op Search steps to completion, wop and wcy the write op
	// and cycle Insert, Update and Delete step (write.go).
	desc descent
	sop  searchOp
	wop  writeOp
	wcy  writeCycle

	// The batch ops (pipeline.go, write.go), last: the hot fields above
	// keep their cache lines.
	sb searchBatch
	wb writeBatch
}

// NewClient creates a client handle bound to this compute node.
func (cn *ComputeNode) NewClient() *Client {
	dc := cn.ix.fabric.NewClient()
	dc.SetFlight(cn.obs.Flight.NewFlight(dc.ID()))
	c := &Client{
		cn:    cn,
		ix:    cn.ix,
		dc:    dc,
		alloc: dmsim.NewChunkAllocator(dc, int(dc.ID())%cn.ix.fabric.MNs()),
		obs:   cn.obs,
	}
	c.port = c.newPort()
	return c
}

// DM returns the underlying fabric client (virtual clock and traffic
// stats), used by the benchmark harness.
func (c *Client) DM() *dmsim.Client { return c.dc }

// chargeLocalWork charges the per-step CN-side compute, labeled as
// cache/local-lookup work in the flight ledger.
func (c *Client) chargeLocalWork() {
	fl := c.dc.Flight()
	prev := fl.SetPhase(obs.PhaseCacheLookup)
	c.dc.Advance(localWorkNs)
	fl.SetPhase(prev)
}

// refreshRoot re-reads the super block.
func (c *Client) refreshRoot() error {
	var b [8]byte
	if err := c.dc.Read(c.ix.super, b[:]); err != nil {
		return err
	}
	c.rootAddr, c.rootLevel = unpackSuper(binary.LittleEndian.Uint64(b[:]))
	return nil
}

// getInternal returns an internal-node image for this client's next
// fetch: one it recycled earlier, or a new one.
func (c *Client) getInternal() *internalImage {
	if n := len(c.innerFree); n > 0 {
		im := c.innerFree[n-1]
		c.innerFree = c.innerFree[:n-1]
		return im
	}
	return newInternalImage(c.ix.inner)
}

// putInternal recycles an image this client fetched and no one else
// holds. The next fetch overwrites it, so the caller must be done with
// everything it read from it (see internalImage).
func (c *Client) putInternal(im *internalImage) {
	if poisonRecycled {
		poison(im.buf)
		im.decodeHeader()
	}
	c.innerFree = append(c.innerFree, im)
}

// keepInternal offers a freshly fetched node to the cache and recycles
// it if the cache declines (or the node is a deleted one, which must
// not be cached). Either way the image is no longer the caller's.
func (c *Client) keepInternal(addr dmsim.GAddr, im *internalImage) {
	if !im.valid || !c.cn.cache.Put(addr, im, int64(c.ix.inner.size)) {
		c.putInternal(im)
	}
}

// readInternal fetches and validates an internal node, retrying torn
// reads. It does not consult the cache. The image is the caller's: to
// route on and then hand to keepInternal or putInternal, or — a writer
// under the node's lock — to decode in full and bump versions from.
func (c *Client) readInternal(addr dmsim.GAddr) (*internalImage, error) {
	im := c.getInternal()
	for try := 0; try < maxRetries; try++ {
		if err := c.dc.Read(addr, im.buf); err != nil {
			c.putInternal(im)
			return nil, err
		}
		if err := c.ix.inner.checkInternalImage(im.buf); err != nil {
			c.obs.TornReads.Inc()
			c.backoff.Yield(c.dc)
			continue
		}
		c.backoff.Reset()
		im.decodeHeader()
		return im, nil
	}
	c.putInternal(im)
	return nil, fmt.Errorf("core: internal node %v: torn-read retries exhausted", addr)
}

// pathEntry records one internal node visited during traversal, for
// split up-propagation.
type pathEntry struct {
	addr  dmsim.GAddr
	level uint8
}

// leafRef identifies the leaf a traversal reached plus the context
// needed for sibling-based validation (§4.2.3).
type leafRef struct {
	addr dmsim.GAddr

	// expected is the "next child pointer" from the parent: what the
	// leaf's sibling pointer should equal. Unknown (expectedKnown
	// false) when the leaf is its parent's last child or was reached
	// by sibling chase.
	expected      dmsim.GAddr
	expectedKnown bool

	// parentAddr/fromCache drive cache invalidation on mismatch.
	parentAddr      dmsim.GAddr
	parentFromCache bool
}

// reap polls a posted verb and recycles its handle; the caller drops
// its reference.
func (c *Client) reap(h *dmsim.Completion) {
	c.dc.Poll(h)
	c.dc.Release(h)
}

// validateLeafMeta applies sibling-based validation to a fetched leaf
// window. Returns errRestart for stale caches and deleted nodes; reports
// followSibling=true when the reader should continue into the sibling
// (possible half-split).
func (c *Client) validateLeafMeta(ref *leafRef, meta leafMeta, key uint64, found bool) (followSibling bool, err error) {
	if !meta.valid {
		// Merged away: a cached parent that still routes here must go, or
		// the retry meets the same deleted leaf.
		c.invalidateRefParent(*ref)
		return false, errRestart
	}
	mismatch := ref.expectedKnown && meta.sibling != ref.expected
	if mismatch && ref.parentFromCache {
		// Cache validation (§4.2.3 rule 1): the cached parent predates a
		// split; invalidate and retry the whole search.
		c.cn.cache.Drop(ref.parentAddr)
		return false, errRestart
	}
	if found {
		return false, nil
	}
	// Half-split validation (§4.2.3 rule 2): key absent, sibling pointer
	// mismatched (or unknown with the key beyond the fence) — the key may
	// have moved right.
	if mismatch {
		return true, nil
	}
	if !ref.expectedKnown && !meta.fenceInf && key >= meta.fenceHi && !meta.sibling.IsNil() {
		return true, nil
	}
	return false, nil
}

// detachValue takes a decoded entry's payload out of its image, so the
// image can be recycled: a copy of an inline value, or the block pointer
// an indirect entry holds.
func (c *Client) detachValue(stored []byte) (val []byte, ptr dmsim.GAddr) {
	if c.ix.opts.Indirect {
		return nil, ptrOf(stored)
	}
	return append([]byte(nil), stored...), dmsim.NilGAddr
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
	inner, leaf := newInternalImage(ix.inner), newLeafImage(ix.leaf)
	for level := int(rootLevel); level >= 0; level-- {
		var below dmsim.GAddr
		for addr := first; !addr.IsNil(); nodes[level]++ {
			if level > 0 {
				if err := peek(addr, inner.buf); err != nil {
					return nil, nil, err
				}
				inner.decodeHeader()
				if addr == first {
					below = inner.leftmost
				}
				addr = inner.sibling
				continue
			}
			if err := peek(addr, leaf.buf); err != nil {
				return nil, nil, err
			}
			keys := 0
			for i := 0; i < ix.leaf.span; i++ {
				if occupied, _, _ := leaf.slot(i); occupied {
					keys++
				}
			}
			leafKeys = append(leafKeys, keys)
			addr = leaf.meta(0).sibling
		}
		first = below
	}
	return nodes, leafKeys, nil
}
