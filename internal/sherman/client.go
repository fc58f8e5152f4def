package sherman

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"sync"

	"chime/internal/dmsim"
	"chime/internal/lease"
	"chime/internal/locktable"
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

func (n *node) covers(key uint64) bool {
	return key >= n.hdr.fenceLow && (n.hdr.fenceInf || key < n.hdr.fenceHi)
}

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

	mu     sync.Mutex
	budget int64
	used   int64
	lru    *list.List
	items  map[dmsim.GAddr]*list.Element

	hits, misses int64

	obs obs.IndexInstruments
}

// SetObserver attaches an observability sink; clients created afterward
// count retries, torn reads, lock backoffs and sibling chases into it
// and emit per-operation trace spans when the sink traces. Call before
// NewClient. With no sink every instrumented call is a no-op.
func (cn *ComputeNode) SetObserver(s *obs.Sink) {
	cn.obs = obs.ResolveIndex(s)
}

type cacheSlot struct {
	addr dmsim.GAddr
	n    *node
}

// NewComputeNode creates CN state with an internal-node cache budget.
func (ix *Index) NewComputeNode(cacheBytes int64) *ComputeNode {
	return &ComputeNode{
		ix:     ix,
		locks:  locktable.New(),
		budget: cacheBytes,
		lru:    list.New(),
		items:  make(map[dmsim.GAddr]*list.Element),
	}
}

// CacheStats reports hit/miss/occupancy counters.
func (cn *ComputeNode) CacheStats() (hits, misses, nodes int64, usedBytes int64) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.hits, cn.misses, int64(len(cn.items)), cn.used
}

func (cn *ComputeNode) cacheGet(addr dmsim.GAddr) *node {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if el, ok := cn.items[addr]; ok {
		cn.hits++
		cn.lru.MoveToFront(el)
		return el.Value.(*cacheSlot).n
	}
	cn.misses++
	return nil
}

func (cn *ComputeNode) cachePut(addr dmsim.GAddr, n *node) {
	size := int64(cn.ix.inner.size)
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.budget <= 0 {
		return
	}
	if el, ok := cn.items[addr]; ok {
		el.Value.(*cacheSlot).n = n
		cn.lru.MoveToFront(el)
		return
	}
	cn.items[addr] = cn.lru.PushFront(&cacheSlot{addr: addr, n: n})
	cn.used += size
	for cn.used > cn.budget {
		back := cn.lru.Back()
		if back == nil {
			break
		}
		slot := back.Value.(*cacheSlot)
		cn.lru.Remove(back)
		delete(cn.items, slot.addr)
		cn.used -= size
	}
}

func (cn *ComputeNode) cacheDrop(addr dmsim.GAddr) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if el, ok := cn.items[addr]; ok {
		cn.lru.Remove(el)
		delete(cn.items, addr)
		cn.used -= int64(cn.ix.inner.size)
	}
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

	// desc is the descent the synchronous write and scan paths step to
	// their leaf (descent.go); sop the one op Search steps to completion;
	// opFree the finished SearchBatch ops the next batch reuses.
	desc   descent
	sop    batchOp
	opFree []*batchOp

	// The node images the synchronous paths fetch into and build in, one
	// pair per layout, and the leaf images of finished write cycles the
	// next cycles reuse. An image is good until its next fill (image).
	leafIm, innerIm nodeImages
	wcFree          []*image
	wcChanged       []int // slots one write cycle mutated

	// placed is the key this client last placed at each level, by which a
	// split tells an ascending run (nodelayout.SplitPoint).
	placed nodelayout.Placed

	// Staging the verbs of one op reuse: the address/buffer lists of a
	// write batch, a scan's (or a split's) slots and the scratch that
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

	// Write-pipeline counters: leaf write cycles executed and batch keys
	// absorbed into an already-open cycle (per-leaf write combining).
	wcCycles   int64
	wcCombined int64

	obs obs.IndexInstruments

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

// lock acquires a node's lock bit, absorbing same-CN contention in the
// local lock table (Sherman's design): only the first local contender
// issues remote CASes; later ones receive the lock by local handover.
func (c *Client) lock(addr dmsim.GAddr) error {
	// All time until the lock is held — handover waits, CAS round
	// trips, backoff — is lock time in the flight ledger.
	fl := c.dc.Flight()
	defer fl.SetPhase(fl.SetPhase(obs.PhaseLockBackoff))
	if c.ix.opts.LeaseLocks {
		return c.lockLease(addr)
	}
	if _, handover := c.cn.locks.Acquire(c.dc, addr.Pack()); handover {
		return nil
	}
	for try := 0; try < maxRetries; try++ {
		_, ok, err := c.dc.MaskedCAS(addr, 0, 1, 1, 1)
		if err != nil {
			return err
		}
		if ok {
			c.ys.Reset()
			return nil
		}
		c.obs.LockBackoffs.Inc()
		c.ys.Yield(c.dc)
	}
	return fmt.Errorf("sherman: lock %v starved", addr)
}

// lockLease is the lease-mode acquisition: the CAS installs our
// (owner, expiry) lease and a lock stuck under an expired lease is
// stolen with a full-word CAS (internal/lease). No repair read is
// needed — every write re-reads the node under the lock before
// touching it, so a steal leaves nothing stale behind.
func (c *Client) lockLease(addr dmsim.GAddr) error {
	leaseNs := c.ix.opts.LeaseNs
	if leaseNs <= 0 {
		leaseNs = lease.DefaultNs
	}
	for try := 0; try < maxRetries; try++ {
		word := lease.Word(c.dc.ID(), c.dc.Now()+leaseNs)
		prev, ok, err := c.dc.MaskedCAS(addr, 0, word, 1, ^uint64(0))
		if err != nil {
			return err
		}
		if ok {
			c.ys.Reset()
			return nil
		}
		if lease.Expired(prev, c.dc.Now()) {
			c.obs.LeaseExpired.Inc()
			if _, won, err := c.dc.CAS(addr, prev, word); err != nil {
				return err
			} else if won {
				c.obs.Recoveries.Inc()
				c.ys.Reset()
				return nil
			}
		}
		c.obs.LockBackoffs.Inc()
		c.ys.Yield(c.dc)
	}
	return fmt.Errorf("sherman: lock %v starved", addr)
}

func (c *Client) unlock(addr dmsim.GAddr) error {
	if c.ix.opts.LeaseLocks {
		return c.dc.Write(addr, unlocked[:])
	}
	if c.cn.locks.ReleaseHandover(c.dc, addr.Pack(), 1) {
		return nil
	}
	if err := c.dc.Write(addr, unlocked[:]); err != nil {
		return err
	}
	c.cn.locks.ReleaseRemote(c.dc, addr.Pack())
	return nil
}

// unlocked is a released lock word, as a write's source buffer.
var unlocked [8]byte

// writeAndUnlock writes buf at off in the locked node and releases its
// lock: a combined doorbell batch when no local contender waits, a local
// handover otherwise.
func (c *Client) writeAndUnlock(addr dmsim.GAddr, off int, buf []byte) error {
	if c.cn.locks.HasWaiters(addr.Pack()) {
		if err := c.dc.Write(addr.Add(uint64(off)), buf); err != nil {
			return err
		}
		if c.cn.locks.ReleaseHandover(c.dc, addr.Pack(), 1) {
			return nil
		}
	}
	c.wAddrs = append(c.wAddrs[:0], addr.Add(uint64(off)), addr)
	c.wBufs = append(c.wBufs[:0], buf, unlocked[:])
	if err := c.dc.WriteBatch(c.wAddrs, c.wBufs); err != nil {
		return err
	}
	c.cn.locks.ReleaseRemote(c.dc, addr.Pack())
	return nil
}

// writeEntryAndUnlock writes one entry cell and releases the lock.
func (c *Client) writeEntryAndUnlock(addr dmsim.GAddr, im *image, slot int) error {
	return c.writeAndUnlock(addr, im.lay.entryCells[slot].Off, im.cell(slot))
}

// writeNodeAndUnlock writes the whole node body and releases the lock.
func (c *Client) writeNodeAndUnlock(addr dmsim.GAddr, im *image) error {
	return c.writeAndUnlock(addr, lineSize, im.body())
}

func (c *Client) prepareValue(key uint64, value []byte) ([]byte, error) {
	if !c.ix.opts.Indirect {
		if len(value) != c.ix.opts.ValueSize {
			return nil, fmt.Errorf("sherman: value is %dB, tree stores %dB", len(value), c.ix.opts.ValueSize)
		}
		return value, nil
	}
	block := make([]byte, 8+len(value))
	binary.LittleEndian.PutUint64(block[:8], key)
	copy(block[8:], value)
	addr, err := c.alloc.Alloc(len(block))
	if err != nil {
		return nil, err
	}
	if err := c.dc.Write(addr, block); err != nil {
		return nil, err
	}
	ptr := make([]byte, 8)
	binary.LittleEndian.PutUint64(ptr, addr.Pack())
	return ptr, nil
}

// Insert adds or overwrites a key (upsert).
func (c *Client) Insert(key uint64, value []byte) error {
	if sp := c.obs.Tracer.Begin("sherman.insert", "idx", c.dc.ID(), c.dc.Now()); sp != nil {
		defer func() { sp.End(c.dc.Now()) }()
	}
	if fl := c.dc.Flight(); fl != nil {
		fl.Begin(obs.OpInsert, c.dc.Now())
		defer func() { fl.End(c.dc.Now()) }()
	}
	val, err := c.prepareValue(key, value)
	if err != nil {
		return err
	}
	for attempt := 0; attempt < maxRetries; attempt++ {
		leaf, path, err := c.descend(key)
		if err != nil {
			return err
		}
		done, err := c.insertIntoLeaf(leaf, path, key, val)
		if err == errRestart {
			c.noteRestart()
			continue
		}
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
	return fmt.Errorf("sherman: Insert(%#x) exhausted", key)
}

// lockCovering locks and fetches the leaf that covers key, starting at
// leaf and chasing the B-link sibling chain under per-leaf locks: a stale
// cached parent may route to a long-split leaf whose keys moved right,
// and the chain — not a retraversal through the same stale cache — is
// what reaches them. On errRestart (the leaf is gone, or starts past the
// key) and on any other error no lock is held.
func (c *Client) lockCovering(leaf dmsim.GAddr, key uint64) (dmsim.GAddr, *image, header, error) {
	for hops := 0; hops <= maxRetries; hops++ {
		if err := c.lock(leaf); err != nil {
			return leaf, nil, header{}, err
		}
		im, hdr, err := c.readNode(c.ix.leaf, leaf)
		if err != nil {
			c.unlock(leaf)
			return leaf, nil, header{}, err
		}
		if !hdr.valid || key < hdr.fenceLow {
			c.unlock(leaf)
			return leaf, nil, header{}, errRestart
		}
		if hdr.fenceInf || key < hdr.fenceHi {
			return leaf, im, hdr, nil
		}
		next := hdr.sibling
		c.unlock(leaf)
		if next.IsNil() {
			return leaf, nil, header{}, errRestart
		}
		c.obs.SiblingChases.Inc()
		leaf = next
	}
	return leaf, nil, header{}, fmt.Errorf("sherman: leaf chain of %#x too long", key)
}

func (c *Client) insertIntoLeaf(leaf dmsim.GAddr, path []pathEntry, key uint64, val []byte) (bool, error) {
	leaf, im, hdr, err := c.lockCovering(leaf, key)
	if err != nil {
		return false, err
	}
	slot, free := im.find(key)
	if slot < 0 {
		slot = free
	}
	if slot >= 0 {
		// Upsert in place or fill a free slot: one entry write + combined
		// unlock.
		im.setEntry(slot, key, val, true)
		c.placed.Note(0, key)
		return true, c.writeEntryAndUnlock(leaf, im, slot)
	}
	// Leaf full: split, write new right node then old node.
	return false, c.splitLeaf(leaf, path, im, hdr, key)
}

// splitLeaf moves the upper part of a full, locked leaf (im, fetched or
// mutated under the lock) into a fresh right sibling — from where
// nodelayout.SplitPoint cuts it for pending, the key that found no slot —
// rewrites the leaf compacted, unlocks it and propagates the split key.
// Both parts are assembled in the client's build image, one after the
// other, reading entries out of im, which is not modified and is dead
// once the leaf is written — before any parent is read.
func (c *Client) splitLeaf(leaf dmsim.GAddr, path []pathEntry, im *image, hdr header, pending uint64) error {
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
		c.unlock(leaf)
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
		c.unlock(leaf)
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
	if err := c.writeNodeAndUnlock(leaf, left); err != nil {
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

// updateOneSided overwrites an existing key's value with one-sided
// verbs; the public Update (offload.go) routes between this and the
// MN-side offload program.
func (c *Client) updateOneSided(key uint64, value []byte) error {
	val, err := c.prepareValue(key, value)
	if err != nil {
		return err
	}
	return c.modify(key, &val)
}

// Delete removes a key.
func (c *Client) Delete(key uint64) error {
	if sp := c.obs.Tracer.Begin("sherman.delete", "idx", c.dc.ID(), c.dc.Now()); sp != nil {
		defer func() { sp.End(c.dc.Now()) }()
	}
	if fl := c.dc.Flight(); fl != nil {
		fl.Begin(obs.OpDelete, c.dc.Now())
		defer func() { fl.End(c.dc.Now()) }()
	}
	return c.modify(key, nil)
}

func (c *Client) modify(key uint64, val *[]byte) error {
	for attempt := 0; attempt < maxRetries; attempt++ {
		leaf, _, err := c.descend(key)
		if err != nil {
			return err
		}
		leaf, im, _, err := c.lockCovering(leaf, key)
		if err == errRestart {
			c.noteRestart()
			continue
		}
		if err != nil {
			return err
		}
		slot, _ := im.find(key)
		if slot < 0 {
			c.unlock(leaf)
			return ErrNotFound
		}
		if val != nil {
			im.setEntry(slot, key, *val, true)
		} else {
			im.clearEntry(slot, true)
		}
		return c.writeEntryAndUnlock(leaf, im, slot)
	}
	return fmt.Errorf("sherman: modify(%#x) exhausted", key)
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
		c.cn.cacheDrop(parent.addr)
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
