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

func (n *node) childFor(key uint64) dmsim.GAddr {
	lo, hi := 0, len(n.piv)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.piv[mid] > key {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return n.hdr.leftmost
	}
	return n.kids[lo-1]
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

// readNode fetches and validates a whole node image of the given layout.
func (c *Client) readNode(lay *layout, addr dmsim.GAddr) ([]byte, header, error) {
	img := make([]byte, lay.size)
	for try := 0; try < maxRetries; try++ {
		if err := c.dc.Read(addr.Add(lineSize), img[lineSize:]); err != nil {
			return nil, header{}, err
		}
		if err := nodelayout.CheckVersions(img, 0, lay.allCells); err != nil {
			c.obs.TornReads.Inc()
			c.ys.Yield(c.dc)
			continue
		}
		c.ys.Reset()
		return img, lay.decodeHeader(img), nil
	}
	return nil, header{}, fmt.Errorf("sherman: node %v: torn-read retries exhausted", addr)
}

func (c *Client) decodeInternal(addr dmsim.GAddr, img []byte, hdr header) *node {
	n := &node{addr: addr, hdr: hdr}
	for i := 0; i < hdr.nkeys; i++ {
		e := c.ix.inner.decodeEntry(img, i)
		n.piv = append(n.piv, e.key)
		n.kids = append(n.kids, dmsim.UnpackGAddr(binary.LittleEndian.Uint64(e.val[:8])))
	}
	return n
}

type pathEntry struct {
	addr  dmsim.GAddr
	level uint8
}

// readIndirect follows an entry's block pointer for a scan (point reads
// post theirs, pipeline.go). The block holds [8B key][value]; a key
// mismatch means the entry was concurrently re-pointed.
func (c *Client) readIndirect(ptrBytes []byte, key uint64) ([]byte, error) {
	ptr := dmsim.UnpackGAddr(binary.LittleEndian.Uint64(ptrBytes[:8]))
	if ptr.IsNil() {
		return nil, errRestart
	}
	buf := make([]byte, 8+c.ix.opts.ValueSize)
	if err := c.dc.Read(ptr, buf); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(buf[:8]) != key {
		return nil, errRestart
	}
	return buf[8:], nil
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
		var b [8]byte
		return c.dc.Write(addr, b[:])
	}
	if c.cn.locks.ReleaseHandover(c.dc, addr.Pack(), 1) {
		return nil
	}
	var b [8]byte
	if err := c.dc.Write(addr, b[:]); err != nil {
		return err
	}
	c.cn.locks.ReleaseRemote(c.dc, addr.Pack())
	return nil
}

// writeEntryAndUnlock writes one entry cell and releases the lock: a
// combined doorbell batch when no local contender waits, a local
// handover otherwise.
func (c *Client) writeEntryAndUnlock(lay *layout, addr dmsim.GAddr, img []byte, slot int) error {
	cellC := lay.entryCells[slot]
	if c.cn.locks.HasWaiters(addr.Pack()) {
		if err := c.dc.Write(addr.Add(uint64(cellC.Off)), img[cellC.Off:cellC.End()]); err != nil {
			return err
		}
		if c.cn.locks.ReleaseHandover(c.dc, addr.Pack(), 1) {
			return nil
		}
	}
	var zero [8]byte
	if err := c.dc.WriteBatch(
		[]dmsim.GAddr{addr.Add(uint64(cellC.Off)), addr},
		[][]byte{img[cellC.Off:cellC.End()], zero[:]},
	); err != nil {
		return err
	}
	c.cn.locks.ReleaseRemote(c.dc, addr.Pack())
	return nil
}

// writeNodeAndUnlock writes the whole node body and releases the lock.
func (c *Client) writeNodeAndUnlock(addr dmsim.GAddr, img []byte) error {
	if c.cn.locks.HasWaiters(addr.Pack()) {
		if err := c.dc.Write(addr.Add(lineSize), img[lineSize:]); err != nil {
			return err
		}
		if c.cn.locks.ReleaseHandover(c.dc, addr.Pack(), 1) {
			return nil
		}
	}
	var zero [8]byte
	if err := c.dc.WriteBatch(
		[]dmsim.GAddr{addr.Add(lineSize), addr},
		[][]byte{img[lineSize:], zero[:]},
	); err != nil {
		return err
	}
	c.cn.locks.ReleaseRemote(c.dc, addr.Pack())
	return nil
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

func (c *Client) insertIntoLeaf(leaf dmsim.GAddr, path []pathEntry, key uint64, val []byte) (bool, error) {
	lay := c.ix.leaf
	var img []byte
	var hdr header
	// Chase the sibling chain across half-splits and stale caches, as
	// the read path does.
	for hops := 0; ; hops++ {
		if hops > maxRetries {
			return false, fmt.Errorf("sherman: insert(%#x): sibling chain too long", key)
		}
		if err := c.lock(leaf); err != nil {
			return false, err
		}
		var err error
		img, hdr, err = c.readNode(lay, leaf)
		if err != nil {
			c.unlock(leaf)
			return false, err
		}
		if !hdr.valid || key < hdr.fenceLow {
			c.unlock(leaf)
			return false, errRestart
		}
		if !hdr.fenceInf && key >= hdr.fenceHi {
			next := hdr.sibling
			c.unlock(leaf)
			if next.IsNil() {
				return false, errRestart
			}
			c.obs.SiblingChases.Inc()
			leaf = next
			continue
		}
		break
	}

	freeSlot := -1
	for i := 0; i < lay.span; i++ {
		e := lay.decodeEntry(img, i)
		if e.occupied && e.key == key {
			// Upsert in place: one entry write + combined unlock.
			lay.encodeEntry(img, i, entry{occupied: true, key: key, val: val}, true)
			return true, c.writeEntryAndUnlock(lay, leaf, img, i)
		}
		if !e.occupied && freeSlot < 0 {
			freeSlot = i
		}
	}
	if freeSlot >= 0 {
		lay.encodeEntry(img, freeSlot, entry{occupied: true, key: key, val: val}, true)
		return true, c.writeEntryAndUnlock(lay, leaf, img, freeSlot)
	}

	// Leaf full: split (median key), write new right node then old node.
	if err := c.splitLeaf(leaf, path, img, hdr); err != nil {
		return false, err
	}
	return false, nil
}

func (c *Client) splitLeaf(leaf dmsim.GAddr, path []pathEntry, img []byte, hdr header) error {
	c.obs.Splits.Inc()
	lay := c.ix.leaf
	var all []entry
	for i := 0; i < lay.span; i++ {
		e := lay.decodeEntry(img, i)
		if e.occupied {
			e.val = append([]byte(nil), e.val...)
			all = append(all, e)
		}
	}
	all = sortEntries(all)
	mid := len(all) / 2
	splitKey := all[mid].key

	rightAddr, err := c.alloc.Alloc(lay.size)
	if err != nil {
		c.unlock(leaf)
		return err
	}
	rightImg := make([]byte, lay.size)
	lay.encodeHeader(rightImg, header{
		valid: true, level: 0,
		fenceLow: splitKey, fenceHi: hdr.fenceHi, fenceInf: hdr.fenceInf,
		sibling: hdr.sibling,
	})
	for i, e := range all[mid:] {
		lay.encodeEntry(rightImg, i, e, false)
	}
	if err := c.dc.Write(rightAddr, rightImg); err != nil {
		c.unlock(leaf)
		return err
	}

	// Rewrite the old node compacted; a node write bumps NV everywhere.
	for i := 0; i < lay.span; i++ {
		lay.encodeEntry(img, i, entry{}, false)
	}
	for i, e := range all[:mid] {
		lay.encodeEntry(img, i, e, false)
	}
	lay.encodeHeader(img, header{
		valid: true, level: 0,
		fenceLow: hdr.fenceLow, fenceHi: splitKey,
		sibling: rightAddr,
	})
	nodelayout.BumpNV(img, lay.allCells)
	if err := c.writeNodeAndUnlock(leaf, img); err != nil {
		return err
	}
	return c.propagate(path, 0, splitKey, rightAddr)
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
	lay := c.ix.leaf
	for attempt := 0; attempt < maxRetries; attempt++ {
		leaf, _, err := c.descend(key)
		if err != nil {
			return err
		}
		// Chase the B-link sibling chain under per-leaf locks: a stale
		// cached parent may route to a long-split leaf whose keys moved
		// right, and the chain — not a retraversal through the same
		// stale cache — is what reaches them.
		restart := false
		for hops := 0; hops <= maxRetries && !restart; hops++ {
			if err := c.lock(leaf); err != nil {
				return err
			}
			img, hdr, err := c.readNode(lay, leaf)
			if err != nil {
				c.unlock(leaf)
				return err
			}
			if !hdr.valid || key < hdr.fenceLow {
				c.unlock(leaf)
				restart = true
				break
			}
			if !hdr.fenceInf && key >= hdr.fenceHi {
				next := hdr.sibling
				c.unlock(leaf)
				if next.IsNil() {
					restart = true
					break
				}
				c.obs.SiblingChases.Inc()
				leaf = next
				continue
			}
			for i := 0; i < lay.span; i++ {
				e := lay.decodeEntry(img, i)
				if e.occupied && e.key == key {
					if val != nil {
						lay.encodeEntry(img, i, entry{occupied: true, key: key, val: *val}, true)
					} else {
						lay.encodeEntry(img, i, entry{}, true)
					}
					return c.writeEntryAndUnlock(lay, leaf, img, i)
				}
			}
			c.unlock(leaf)
			return ErrNotFound
		}
		c.noteRestart()
	}
	return fmt.Errorf("sherman: modify(%#x) exhausted", key)
}

// KV is one scan result.
type KV = offroute.KV

// scanOneSided returns up to count items with keys >= start in
// ascending order, reading whole leaves along the sibling chain with
// one-sided verbs; the public Scan (offload.go) routes between this and
// the MN-side offload program.
func (c *Client) scanOneSided(start uint64, count int) ([]KV, error) {
	lay := c.ix.leaf
	for attempt := 0; attempt < maxRetries; attempt++ {
		leaf, _, err := c.descend(start)
		if err != nil {
			return nil, err
		}
		var out []KV
		restart := false
		for leaves := 0; leaves <= maxRetries; leaves++ {
			img, hdr, err := c.readNode(lay, leaf)
			if err != nil {
				return nil, err
			}
			if !hdr.valid {
				restart = true
				break
			}
			var batch []entry
			for i := 0; i < lay.span; i++ {
				e := lay.decodeEntry(img, i)
				if e.occupied && e.key >= start {
					e.val = append([]byte(nil), e.val...)
					batch = append(batch, e)
				}
			}
			for _, e := range sortEntries(batch) {
				v := e.val[:lay.valSize]
				if c.ix.opts.Indirect {
					v, err = c.readIndirect(e.val, e.key)
					if err == errRestart {
						restart = true
						break
					}
					if err != nil {
						return nil, err
					}
				}
				out = append(out, KV{Key: e.key, Value: append([]byte(nil), v...)})
			}
			if restart {
				break
			}
			if len(out) >= count {
				return out[:count], nil
			}
			if hdr.sibling.IsNil() {
				return out, nil
			}
			leaf = hdr.sibling
		}
		if restart {
			c.noteRestart()
			continue
		}
	}
	return nil, fmt.Errorf("sherman: Scan(%#x) exhausted", start)
}
