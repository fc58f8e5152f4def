package sherman

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"chime/internal/dmsim"
	"chime/internal/locktable"
	"chime/internal/nodecache"
	"chime/internal/nodelayout"
	"chime/internal/obs"
	"chime/internal/offroute"
)

// node is a decoded internal node: header plus sorted routing entries
// (slots [0, nkeys) hold pivots ascending; child addresses are packed in
// the entry value word).
type node struct {
	addr dmsim.GAddr
	hdr  header
	piv  []uint64
	kids []dmsim.GAddr
}

func (n *node) covers(key uint64) bool { return n.hdr.covers(key) }

// rank returns how many pivots are <= key: kids[rank-1] covers key (the
// leftmost child when rank is 0) and kids[rank:] follow it in key order.
func (n *node) rank(key uint64) int {
	lo, hi := 0, len(n.piv)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.piv[mid] > key {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func (n *node) childFor(key uint64) dmsim.GAddr {
	if r := n.rank(key); r > 0 {
		return n.kids[r-1]
	}
	return n.hdr.leftmost
}

// ComputeNode holds the CN-shared internal-node cache and the local
// lock table (Sherman's signature optimization).
type ComputeNode struct {
	ix    *Index
	locks *locktable.Table

	// splits counts the leaf splits this CN's clients have in flight, up
	// to the parent's update (dropParent).
	splits atomic.Int32

	// cache holds internal nodes, each costing ix.inner.size, under one
	// mutex: one LRU over the whole CN.
	cache *nodecache.Cache[*node]

	obs obs.IndexInstruments
}

// SetObserver attaches an observability sink; clients created afterward
// count retries, torn reads, lock backoffs and sibling chases into it
// and emit per-operation trace spans when the sink traces. Call before
// NewClient. With no sink every instrumented call is a no-op.
func (cn *ComputeNode) SetObserver(s *obs.Sink) {
	cn.obs = obs.ResolveIndex(s)
}

// NewComputeNode creates CN state with an internal-node cache budget.
func (ix *Index) NewComputeNode(cacheBytes int64) *ComputeNode {
	return &ComputeNode{ix: ix, locks: locktable.New(), cache: nodecache.New[*node](cacheBytes, 1)}
}

// CacheStats reports hit/miss/occupancy counters.
func (cn *ComputeNode) CacheStats() (hits, misses, nodes int64, usedBytes int64) {
	st := cn.cache.Stats()
	return st.Hits, st.Misses, int64(st.Nodes), st.UsedBytes
}

// Client is one Sherman client; not safe for concurrent use.
type Client struct {
	cn    *ComputeNode
	ix    *Index
	dc    *dmsim.Client
	alloc *dmsim.ChunkAllocator

	rootAddr  dmsim.GAddr
	rootLevel uint8
	ys        dmsim.Backoff

	// desc is the descent the scan path steps to its leaf (descent.go);
	// sop the one op Search steps to completion.
	desc descent
	sop  batchOp

	// The node images the synchronous paths fetch into and build in, one
	// pair per layout. An image is good until its next fill (image).
	leafIm, innerIm nodeImages

	// placed is the key this client last placed at each level, by which a
	// split tells an ascending run (nodelayout.SplitPoint).
	placed nodelayout.Placed

	// Staging the verbs of one op reuse: the address/buffer lists of a
	// write's doorbell batch (room for a range per leaf slot and the
	// unlock), a scan's (or a split's) slots and the scratch that
	// sorts them, and a scan's indirect KV block.
	wAddrs    []dmsim.GAddr
	wBufs     [][]byte
	scanSlots []offroute.ScanSlot
	slotSort  offroute.SortScratch
	block     []byte

	// A scan's window of posted whole-leaf reads, and the leaf images
	// between two of them: a scan owns the images its reads fill.
	scanWin offroute.ScanWindow[leafRead]
	scanIms []*image

	obs obs.IndexInstruments

	// port holds the routed entry points: one-sided vs. MN-side offload
	// per op (offload.go).
	port offroute.Port

	// The write engine (write.go): the op and cycle Insert, Update and
	// Delete step to completion, the batch writer, and its scratch — the
	// slots one cycle changed and the ops that left it. Then SearchBatch
	// (pipeline.go). Last, so the hot fields above keep their cache lines.
	wop       wOp
	wcy       wCycle
	wb        wBatch
	wcChanged []int
	wLeft     []*wOp
	sb        searchBatch
}

// NewClient creates a client bound to the compute node.
func (cn *ComputeNode) NewClient() *Client {
	dc := cn.ix.fabric.NewClient()
	dc.SetFlight(cn.obs.Flight.NewFlight(dc.ID()))
	c := &Client{
		cn: cn, ix: cn.ix, dc: dc,
		alloc:  dmsim.NewChunkAllocator(dc, int(dc.ID())%cn.ix.fabric.MNs()),
		obs:    cn.obs,
		wAddrs: make([]dmsim.GAddr, 0, cn.ix.leaf.span+1),
		wBufs:  make([][]byte, 0, cn.ix.leaf.span+1),
	}
	c.port = c.newPort()
	return c
}

// DM exposes the fabric client for the benchmark harness.
func (c *Client) DM() *dmsim.Client { return c.dc }

// chargeLocalWork charges the per-step CN-side compute, labeled as
// cache-lookup time in the flight ledger (the local work is dominated by
// the index-cache probe and node decode).
func (c *Client) chargeLocalWork() {
	fl := c.dc.Flight()
	prev := fl.SetPhase(obs.PhaseCacheLookup)
	c.dc.Advance(localWorkNs)
	fl.SetPhase(prev)
}

func (c *Client) refreshRoot() error {
	var b [8]byte
	if err := c.dc.Read(c.ix.super, b[:]); err != nil {
		return err
	}
	c.rootAddr, c.rootLevel = unpackSuper(binary.LittleEndian.Uint64(b[:]))
	return nil
}

// nodeImages are a client's two images of one layout: read is what
// readNode fetches into, build what a split or a root growth assembles a
// fresh node in. Each holds one node at a time.
type nodeImages struct{ read, build *image }

func (c *Client) images(lay *layout) *nodeImages {
	if lay.leaf {
		return &c.leafIm
	}
	return &c.innerIm
}

// readNode fetches and validates a whole node into the client's read
// image of the layout: the previous node read through it is gone.
func (c *Client) readNode(lay *layout, addr dmsim.GAddr) (*image, header, error) {
	ims := c.images(lay)
	ims.read = lay.recycle(ims.read)
	im := ims.read
	for try := 0; try < maxRetries; try++ {
		if err := c.dc.Read(addr.Add(lineSize), im.body()); err != nil {
			return nil, header{}, err
		}
		if err := im.check(); err != nil {
			c.obs.TornReads.Inc()
			c.ys.Yield(c.dc)
			continue
		}
		c.ys.Reset()
		return im, im.header(), nil
	}
	return nil, header{}, fmt.Errorf("sherman: node %v: torn-read retries exhausted", addr)
}

// buildImage returns the client's build image of the layout, zeroed: the
// node built in it before must have been written out.
func (c *Client) buildImage(lay *layout) *image {
	ims := c.images(lay)
	ims.build = lay.recycle(ims.build)
	clear(ims.build.buf)
	return ims.build
}

// decodeInternal copies a validated internal node out of its image into
// the decoded form the CN cache keeps. The slices have room for the one
// pivot insertIntoParent adds.
func decodeInternal(addr dmsim.GAddr, im *image, hdr header) *node {
	n := &node{
		addr: addr, hdr: hdr,
		piv:  make([]uint64, hdr.nkeys, hdr.nkeys+1),
		kids: make([]dmsim.GAddr, hdr.nkeys, hdr.nkeys+1),
	}
	for i := range n.piv {
		_, n.piv[i] = im.slot(i)
		n.kids[i] = im.child(i)
	}
	return n
}

// childFor routes key on a validated internal node where it lies: what
// decodeInternal(…).childFor(key) returns, for the callers that visit a
// node once and keep nothing of it.
//
//chime:noalloc
func (im *image) childFor(hdr header, key uint64) dmsim.GAddr {
	lo, hi := 0, hdr.nkeys
	for lo < hi {
		mid := (lo + hi) / 2
		if _, piv := im.slot(mid); piv > key {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return hdr.leftmost
	}
	return im.child(lo - 1)
}

type pathEntry struct {
	addr  dmsim.GAddr
	level uint8
}

// readIndirect follows an entry's block pointer for a scan (point reads
// post theirs, pipeline.go). The block holds [8B key][value]; a key
// mismatch means the entry was concurrently re-pointed. The value is in
// the client's block buffer: good until the next readIndirect.
func (c *Client) readIndirect(ptr dmsim.GAddr, key uint64) ([]byte, error) {
	if ptr.IsNil() {
		return nil, errRestart
	}
	if c.block == nil {
		c.block = make([]byte, 8+c.ix.opts.ValueSize)
	}
	if err := c.dc.Read(ptr, c.block); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(c.block[:8]) != key {
		return nil, errRestart
	}
	return c.block[8:], nil
}

// lock acquires a node's lock bit (an internal node's: a leaf's is a
// state of the write op), absorbing same-CN contention in the local lock
// table outside lease mode (Sherman's design): only the first local
// contender issues remote CASes; later ones receive the lock by local
// handover. unlock and writeAndUnlock release it with local set to
// whether the table is in use; a failed acquire gives the slot back.
func (c *Client) lock(addr dmsim.GAddr) (err error) {
	// All time until the lock is held — handover waits, CAS round
	// trips, backoff — is lock time in the flight ledger.
	fl := c.dc.Flight()
	defer fl.SetPhase(fl.SetPhase(obs.PhaseLockBackoff))
	if !c.ix.opts.LeaseLocks {
		if _, handover := c.cn.locks.Acquire(c.dc, addr.Pack()); handover {
			return nil
		}
		defer func() {
			if err != nil {
				c.cn.locks.ReleaseRemote(c.dc, addr.Pack())
			}
		}()
	}
	for try := 0; try < maxRetries; try++ {
		word, mask := c.lockSwap()
		prev, ok, err := c.dc.MaskedCAS(addr, 0, word, 1, mask)
		if err != nil {
			return err
		}
		if ok {
			c.ys.Reset()
			return nil
		}
		if held, err := c.lockLost(addr, prev, word); held || err != nil {
			return err
		}
	}
	return fmt.Errorf("sherman: lock %v starved", addr)
}

// splitLeaf moves the upper part of a full, locked leaf (im, fetched or
// mutated under the lock) into a fresh right sibling — from where
// nodelayout.SplitPoint cuts it for pending, the key that found no slot —
// rewrites the leaf compacted, unlocks it the way it was locked (local:
// holding the CN's lock-table slot) and propagates the split key.
// Both parts are assembled in the client's build image, one after the
// other, reading entries out of im, which is not modified and is dead
// once the leaf is written — before any parent is read.
func (c *Client) splitLeaf(leaf dmsim.GAddr, path []pathEntry, im *image, hdr header, pending uint64, local bool) error {
	c.cn.splits.Add(1)
	defer c.cn.splits.Add(-1)
	c.obs.Splits.Inc()
	lay := c.ix.leaf
	all := im.occupied(c.scanSlots[:0], 0)
	c.scanSlots = all[:0]
	offroute.SortSlots(all, &c.slotSort)
	var keyBuf [64]uint64 // the default span: a wider leaf's keys go to the heap
	keys := keyBuf[:0]
	for _, s := range all {
		keys = append(keys, s.Key)
	}
	prev, havePrev := c.placed.At(0)
	mid, run := nodelayout.SplitPoint(keys, pending, prev, havePrev)
	if run {
		c.obs.RunSplits.Inc()
	}
	splitKey := all[mid].Key

	rightAddr, err := c.alloc.Alloc(lay.size)
	if err != nil {
		c.unlock(leaf, local)
		return err
	}
	right := c.buildImage(lay)
	right.setHeader(header{
		valid: true, level: 0,
		fenceLow: splitKey, fenceHi: hdr.fenceHi, fenceInf: hdr.fenceInf,
		sibling: hdr.sibling,
	})
	for i, s := range all[mid:] {
		right.setEntry(i, s.Key, im.value(s.Idx), false)
	}
	if err := c.dc.Write(rightAddr, right.buf); err != nil {
		c.unlock(leaf, local)
		return err
	}

	// Rewrite the old node compacted, over its own version bytes; a node
	// write bumps NV everywhere.
	left := c.buildImage(lay)
	copy(left.buf, im.buf)
	for i := range lay.entryCells {
		left.clearEntry(i, false)
	}
	for i, s := range all[:mid] {
		left.setEntry(i, s.Key, im.value(s.Idx), false)
	}
	left.setHeader(header{
		valid: true, level: 0,
		fenceLow: hdr.fenceLow, fenceHi: splitKey,
		sibling: rightAddr,
	})
	left.bumpNV()
	if err := c.writeAndUnlock(leaf, lineSize, left.body(), local); err != nil {
		return err
	}
	return c.propagate(path, 0, splitKey, rightAddr)
}

// occupied appends the image's occupied slots with keys >= start to dst,
// in slot order. Sherman leaves are slot-allocated, not kept sorted — an
// insert touches one slot, preserving the fine-grained write property —
// so splits and scans sort what they collect here.
func (im *image) occupied(dst []offroute.ScanSlot, start uint64) []offroute.ScanSlot {
	for i := 0; i < im.lay.span; i++ {
		if occ, key := im.slot(i); occ && key >= start {
			dst = append(dst, offroute.ScanSlot{Key: key, Idx: i})
		}
	}
	return dst
}

// KV is one scan result.
type KV = offroute.KV

// scanOneSided fills sb with up to count items with keys >= start in
// ascending order, reading whole leaves along the sibling chain with
// one-sided verbs; the public Scan and ScanTo (offload.go) route between
// this and the MN-side offload program. A leaf is read only if the scan
// returns entries from it, and the leaves the level-1 parent names are
// read in parallel as soon as the scan is certain to reach them —
// Sherman's range query — by offroute.ScanWindow's rule, the one CHIME's
// scan follows.
func (c *Client) scanOneSided(sb *offroute.ScanBuf, start uint64, count int) error {
	for attempt := 0; attempt < maxRetries; attempt++ {
		leaf, _, err := c.descend(start)
		if err != nil {
			return err
		}
		err = c.scanChain(sb, leaf, start, count)
		// Reads are still in flight when the walk ends on an error.
		c.dropLeafReads()
		if err == errRestart {
			c.noteRestart()
			continue
		}
		return err
	}
	return fmt.Errorf("sherman: Scan(%#x) exhausted", start)
}

// leafRead is one posted whole-leaf read of a scan, into an image the
// scan owns until it hands it back to scanIms. im is nil when the post
// itself failed: finishLeafRead re-reads the leaf and re-reports the
// error.
type leafRead struct {
	im *image
	h  *dmsim.Completion
}

// scanChain walks the leaf chain from leaf — the one the client's descent
// just reached — filling sb with each leaf's in-range entries in key order
// until count are collected or the chain ends. Values are copied out of
// a leaf image into the scan's arena before the image is refilled. An
// indirect leaf costs one block read per entry the scan returns. Reads
// left in flight are the caller's to drop.
func (c *Client) scanChain(sb *offroute.ScanBuf, leaf dmsim.GAddr, start uint64, count int) error {
	lay := c.ix.leaf
	sb.Reset(count, c.ix.opts.ValueSize)
	parent := c.desc.parent
	var names []dmsim.GAddr
	if parent != nil {
		names = parent.kids[parent.rank(start):]
	}
	w := &c.scanWin
	w.Reset(lay.span, count, leaf, names)
	c.postLeafReads()
	for leaves := 0; leaves <= maxRetries; leaves++ {
		addr, rd, ok := w.Pop()
		if !ok {
			return nil // count reached, or the chain ended
		}
		im, hdr, err := c.finishLeafRead(addr, rd)
		if err == nil {
			err = c.collectLeaf(im, hdr, start, parent, sb)
		}
		if rd.im != nil {
			c.scanIms = append(c.scanIms, rd.im)
		}
		if err != nil {
			return err
		}
	}
	return fmt.Errorf("sherman: Scan(%#x): leaf chain too long", start)
}

// collectLeaf takes one arrived leaf of a scan: it tells the window what
// the leaf holds and where it points, posts the reads the scan now knows
// it needs, and appends the entries the scan wants to sb in key order.
// parent is the node the window's names came from, dropped from the cache
// when the chain contradicts it.
func (c *Client) collectLeaf(im *image, hdr header, start uint64, parent *node, sb *offroute.ScanBuf) error {
	if !hdr.valid {
		return errRestart
	}
	slots := im.occupied(c.scanSlots[:0], start)
	c.scanSlots = slots[:0]
	want, stale := c.scanWin.Arrive(hdr.sibling, len(slots))
	if stale {
		// A leaf split since the parent was cached: what was read past
		// this leaf is not what follows it.
		c.dropLeafReads()
		c.cn.cache.Drop(parent.addr)
	}
	// Before this leaf's values are resolved: the leaf reads overlap the
	// block reads below.
	c.postLeafReads()
	for _, s := range offroute.SortedPrefix(slots, want, &c.slotSort) {
		v := im.value(s.Idx)
		if c.ix.leaf.indirect {
			var err error
			if v, err = c.readIndirect(ptrOf(v), s.Key); err != nil {
				return err
			}
		}
		sb.Add(s.Key, v)
	}
	return nil
}

// postLeafReads posts the whole-node read of every leaf the window says
// the scan needs now. Post errors (range violations) are deferred to
// finishLeafRead.
func (c *Client) postLeafReads() {
	lay, w := c.ix.leaf, &c.scanWin
	for addr, ok := w.Next(); ok; addr, ok = w.Next() {
		var im *image
		if n := len(c.scanIms); n > 0 {
			im, c.scanIms = c.scanIms[n-1], c.scanIms[:n-1]
		}
		im = lay.recycle(im)
		h, err := c.dc.PostRead(addr.Add(lineSize), im.body())
		if err != nil {
			c.scanIms = append(c.scanIms, im)
			im = nil
		}
		w.Push(addr, leafRead{im: im, h: h})
	}
}

// dropLeafReads drains the reads in flight that will not be consumed.
// The polls charge the client the verbs' completion times: a wasted read
// can only slow the scan down.
func (c *Client) dropLeafReads() {
	for _, rd, ok := c.scanWin.Pop(); ok; _, rd, ok = c.scanWin.Pop() {
		if rd.im != nil {
			c.reap(rd.h)
			c.scanIms = append(c.scanIms, rd.im)
		}
	}
}

// finishLeafRead polls a posted leaf read and validates its version
// bytes; a torn one is re-read synchronously into the client's read
// image (readNode), whose retry loop it then shares with every other
// whole-node read.
func (c *Client) finishLeafRead(addr dmsim.GAddr, rd leafRead) (*image, header, error) {
	if rd.im != nil {
		c.reap(rd.h)
		if rd.im.check() == nil {
			c.ys.Reset()
			return rd.im, rd.im.header(), nil
		}
		c.obs.TornReads.Inc()
		c.ys.Yield(c.dc)
	}
	return c.readNode(c.ix.leaf, addr)
}
