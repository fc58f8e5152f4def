package smartidx

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"chime/internal/dmsim"
	"chime/internal/lease"
	"chime/internal/obs"
	"chime/internal/offroute"
)

// ComputeNode holds the CN-shared radix-node cache. Unlike the B+-tree
// indexes, the node population scales with the key count (the KV-
// discrete trade-off), which is what makes SMART's cache so large.
type ComputeNode struct {
	ix *Index

	mu     sync.Mutex
	budget int64
	used   int64
	lru    *list.List
	items  map[dmsim.GAddr]*list.Element

	hits, misses int64

	obs obs.IndexInstruments
}

// SetObserver attaches an observability sink; clients created afterward
// count retries, lock backoffs and structural splits into it and emit
// per-operation trace spans when the sink traces. Call before
// NewClient. With no sink every instrumented call is a no-op.
func (cn *ComputeNode) SetObserver(s *obs.Sink) {
	cn.obs = obs.ResolveIndex(s)
}

type cacheSlot struct {
	addr dmsim.GAddr
	n    *node
	size int64
}

// NewComputeNode creates CN state with a cache byte budget.
func (ix *Index) NewComputeNode(cacheBytes int64) *ComputeNode {
	return &ComputeNode{
		ix:     ix,
		budget: cacheBytes,
		lru:    list.New(),
		items:  make(map[dmsim.GAddr]*list.Element),
	}
}

// CacheStats reports hit/miss/occupancy counters.
func (cn *ComputeNode) CacheStats() (hits, misses, nodes, usedBytes int64) {
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
	size := int64(nodeSize(n.hdr.kind))
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.budget <= 0 || size > cn.budget {
		return
	}
	if el, ok := cn.items[addr]; ok {
		s := el.Value.(*cacheSlot)
		cn.used += size - s.size
		s.n, s.size = n, size
		cn.lru.MoveToFront(el)
	} else {
		cn.items[addr] = cn.lru.PushFront(&cacheSlot{addr: addr, n: n, size: size})
		cn.used += size
	}
	for cn.used > cn.budget {
		back := cn.lru.Back()
		if back == nil {
			break
		}
		s := back.Value.(*cacheSlot)
		cn.lru.Remove(back)
		delete(cn.items, s.addr)
		cn.used -= s.size
	}
}

func (cn *ComputeNode) cacheDrop(addr dmsim.GAddr) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if el, ok := cn.items[addr]; ok {
		s := el.Value.(*cacheSlot)
		cn.lru.Remove(el)
		delete(cn.items, addr)
		cn.used -= s.size
	}
}

// Client is one SMART client; not safe for concurrent use.
type Client struct {
	cn      *ComputeNode
	ix      *Index
	dc      *dmsim.Client
	alloc   *dmsim.ChunkAllocator
	backoff dmsim.Backoff

	// port holds the routed read entry points: one-sided vs. MN-side
	// offload per op (offload.go).
	port offroute.Port

	obs obs.IndexInstruments
}

// NewClient creates a client bound to this compute node.
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

// readNodeRemote fetches a node of the given kind.
func (c *Client) readNodeRemote(addr dmsim.GAddr, kind int) (*node, error) {
	img := make([]byte, nodeSize(kind))
	if err := c.dc.Read(addr, img); err != nil {
		return nil, err
	}
	return decodeNode(addr, img), nil
}

// getNode returns a decoded node, from cache or remote, and whether it
// came from the cache.
func (c *Client) getNode(addr dmsim.GAddr, kind int) (*node, bool, error) {
	if n := c.cn.cacheGet(addr); n != nil {
		return n, true, nil
	}
	n, err := c.readNodeRemote(addr, kind)
	if err != nil {
		return nil, false, err
	}
	if n.hdr.valid {
		c.cn.cachePut(addr, n)
	}
	return n, false, nil
}

// prefixMatch compares a node's compressed prefix against the key path;
// it returns the number of matching bytes.
func prefixMatch(h header, kb [8]byte) int {
	i := 0
	for ; i < h.prefixLen && h.depth+i < 8; i++ {
		if h.prefix[i] != kb[h.depth+i] {
			break
		}
	}
	return i
}

// step is one level of a traversal, kept for structural updates.
type step struct {
	addr dmsim.GAddr
	kind int
	kb   byte // key byte used to leave this node
}

// descend walks to the node responsible for key's next divergence. It
// returns the final node, the path of steps taken (excluding the final
// node), and the packed child value found under the key byte (0 if
// none). It retries on invalidated nodes.
func (c *Client) descend(key uint64) (*node, []step, uint64, error) {
	kb := keyBytes(key)
	for attempt := 0; attempt < maxRetries; attempt++ {
		cur, kind := c.ix.root, kindN256
		var path []step
		restart := false
		for hop := 0; hop < 10 && !restart; hop++ {
			n, fromCache, err := c.getNode(cur, kind)
			if err != nil {
				return nil, nil, 0, err
			}
			if !n.hdr.valid {
				// The node was replaced (expansion / prefix split). Drop
				// it AND the cached parent that still routes here, or the
				// stale pointer would recur forever.
				c.cn.cacheDrop(cur)
				if len(path) > 0 {
					c.cn.cacheDrop(path[len(path)-1].addr)
				}
				restart = true
				break
			}
			if prefixMatch(n.hdr, kb) < n.hdr.prefixLen {
				// Prefix diverges: this node is where the key belongs
				// (insert splits the prefix; search reports not-found).
				return n, path, 0, nil
			}
			d := n.hdr.depth + n.hdr.prefixLen
			if d >= 8 {
				return n, path, 0, nil
			}
			child, ok := n.children[kb[d]]
			if (!ok || child == 0) && fromCache {
				// A cached copy cannot observe remote invalidation: the
				// remote node may have been replaced (expansion/prefix
				// split) with this child present in the replacement.
				// Confirm absence against remote memory before trusting
				// the miss.
				fresh, err := c.readNodeRemote(cur, kind)
				if err != nil {
					return nil, nil, 0, err
				}
				if !fresh.hdr.valid {
					c.cn.cacheDrop(cur)
					if len(path) > 0 {
						c.cn.cacheDrop(path[len(path)-1].addr)
					}
					restart = true
					break
				}
				c.cn.cachePut(cur, fresh)
				n = fresh
				child, ok = n.children[kb[d]]
			}
			if !ok || child == 0 {
				return n, path, 0, nil
			}
			addr, leaf, ckind := unpackChild(child)
			if leaf {
				return n, path, child, nil
			}
			_ = fromCache // staleness is handled via the valid flag
			path = append(path, step{addr: cur, kind: kind, kb: kb[d]})
			cur, kind = addr, ckind
		}
		if !restart {
			return nil, nil, 0, fmt.Errorf("smartidx: descend(%#x): path too deep", key)
		}
		c.obs.Retries.Inc()
		c.backoff.Yield(c.dc)
	}
	return nil, nil, 0, fmt.Errorf("smartidx: descend(%#x) exhausted", key)
}

// readLeaf fetches a leaf block and decodes (key, value).
func (c *Client) readLeaf(addr dmsim.GAddr) (uint64, []byte, error) {
	buf := make([]byte, c.ix.leafSz)
	if err := c.dc.Read(addr, buf); err != nil {
		return 0, nil, err
	}
	return binary.LittleEndian.Uint64(buf[:8]), buf[8:], nil
}

// searchOneSided performs a point query: cached radix descent plus one
// small leaf READ — amplification ≈ 1, SMART's defining property.
func (c *Client) searchOneSided(key uint64) ([]byte, error) {
	for attempt := 0; attempt < maxRetries; attempt++ {
		n, _, child, err := c.descend(key)
		if err != nil {
			return nil, err
		}
		if child == 0 {
			// Could be a stale cached node missing a fresh install:
			// re-read remotely once before declaring absence.
			if fresh, err2 := c.readNodeRemote(n.addr, n.hdr.kind); err2 == nil && fresh.hdr.valid {
				c.cn.cachePut(n.addr, fresh)
				d := fresh.hdr.depth + fresh.hdr.prefixLen
				kb := keyBytes(key)
				if d < 8 {
					if ch, ok := fresh.children[kb[d]]; ok && ch != 0 {
						child = ch
					}
				}
				if prefixMatch(fresh.hdr, kb) < fresh.hdr.prefixLen {
					return nil, ErrNotFound
				}
			}
			if child == 0 {
				return nil, ErrNotFound
			}
		}
		addr, leaf, _ := unpackChild(child)
		if !leaf {
			// A concurrent split replaced the leaf with a subtree.
			c.obs.Retries.Inc()
			c.cn.cacheDrop(n.addr)
			c.backoff.Yield(c.dc)
			continue
		}
		k, v, err := c.readLeaf(addr)
		if err != nil {
			return nil, err
		}
		if k != key {
			// Stale cache or concurrent structural change.
			c.obs.Retries.Inc()
			c.cn.cacheDrop(n.addr)
			if _, err := c.readNodeRemote(n.addr, n.hdr.kind); err != nil {
				return nil, err
			}
			c.backoff.Yield(c.dc)
			continue
		}
		c.dc.Advance(150)
		return v, nil
	}
	return nil, fmt.Errorf("smartidx: Search(%#x) exhausted", key)
}

// lockNode acquires a node's lock word. In lease mode the CAS installs
// an (owner, expiry) lease and a lock stuck under an expired lease is
// stolen (internal/lease); callers re-read the node under the lock, so
// no repair read is needed.
func (c *Client) lockNode(addr dmsim.GAddr) error {
	// All time until the lock is held — CAS round trips, lease steals,
	// backoff — is lock time in the flight ledger.
	fl := c.dc.Flight()
	defer fl.SetPhase(fl.SetPhase(obs.PhaseLockBackoff))
	leaseMode := c.ix.opts.LeaseLocks
	leaseNs := c.ix.opts.LeaseNs
	if leaseNs <= 0 {
		leaseNs = lease.DefaultNs
	}
	for try := 0; try < maxRetries; try++ {
		var prev uint64
		var ok bool
		var err error
		var word uint64
		if leaseMode {
			word = lease.Word(c.dc.ID(), c.dc.Now()+leaseNs)
			prev, ok, err = c.dc.MaskedCAS(addr, 0, word, 1, ^uint64(0))
		} else {
			prev, ok, err = c.dc.MaskedCAS(addr, 0, 1, 1, 1)
		}
		if err != nil {
			return err
		}
		if ok {
			c.backoff.Reset()
			return nil
		}
		if leaseMode && lease.Expired(prev, c.dc.Now()) {
			c.obs.LeaseExpired.Inc()
			if _, won, err := c.dc.CAS(addr, prev, word); err != nil {
				return err
			} else if won {
				c.obs.Recoveries.Inc()
				c.backoff.Reset()
				return nil
			}
		}
		c.obs.LockBackoffs.Inc()
		c.backoff.Yield(c.dc)
	}
	return fmt.Errorf("smartidx: lock %v starved", addr)
}

func (c *Client) unlockNode(addr dmsim.GAddr) error {
	var zero [8]byte
	return c.dc.Write(addr, zero[:])
}

// writeSlotAndUnlock writes one slot record (and, for Node48, its index
// byte) plus the unlock in a single doorbell batch.
func (c *Client) writeSlotAndUnlock(n *node, slotIdx int, s slot, setIdx bool) error {
	img := make([]byte, slotSize)
	binary.LittleEndian.PutUint64(img[:8], s.child)
	img[8] = s.keyByte
	addrs := []dmsim.GAddr{n.addr.Add(uint64(slotOff(n.hdr.kind, slotIdx)))}
	bufs := [][]byte{img}
	if n.hdr.kind == kindN48 && setIdx {
		addrs = append(addrs, n.addr.Add(uint64(n48IdxOff+int(s.keyByte))))
		bufs = append(bufs, []byte{byte(slotIdx + 1)})
	}
	var zero [8]byte
	addrs = append(addrs, n.addr)
	bufs = append(bufs, zero[:])
	return c.dc.WriteBatch(addrs, bufs)
}

// writeLeaf allocates and writes a new leaf block, returning its tagged
// child word.
func (c *Client) writeLeaf(key uint64, value []byte) (uint64, error) {
	if len(value) != c.ix.opts.ValueSize {
		return 0, fmt.Errorf("smartidx: value is %dB, index stores %dB", len(value), c.ix.opts.ValueSize)
	}
	buf := make([]byte, c.ix.leafSz)
	binary.LittleEndian.PutUint64(buf[:8], key)
	copy(buf[8:], value)
	addr, err := c.alloc.Alloc(len(buf))
	if err != nil {
		return 0, err
	}
	if err := c.dc.Write(addr, buf); err != nil {
		return 0, err
	}
	return packChild(addr, true, 0), nil
}

// Insert adds or overwrites a key (upsert). The new leaf is written
// first (out of place), then published with a slot write under the
// owning node's lock.
func (c *Client) Insert(key uint64, value []byte) error {
	if sp := c.obs.Tracer.Begin("smart.insert", "idx", c.dc.ID(), c.dc.Now()); sp != nil {
		defer func() { sp.End(c.dc.Now()) }()
	}
	if fl := c.dc.Flight(); fl != nil {
		fl.Begin(obs.OpInsert, c.dc.Now())
		defer func() { fl.End(c.dc.Now()) }()
	}
	leafWord, err := c.writeLeaf(key, value)
	if err != nil {
		return err
	}
	for attempt := 0; attempt < maxRetries; attempt++ {
		n, path, child, err := c.descend(key)
		if err != nil {
			return err
		}
		done, err := c.install(n, path, child, key, leafWord)
		if err == errRestart {
			c.obs.Retries.Inc()
			c.backoff.Yield(c.dc)
			continue
		}
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
	return fmt.Errorf("smartidx: Insert(%#x) exhausted", key)
}

// install publishes leafWord for key at node n. It handles the four
// structural cases: free slot, existing-leaf replacement or split,
// prefix split, and node expansion.
func (c *Client) install(n *node, path []step, observedChild uint64, key uint64, leafWord uint64) (bool, error) {
	kb := keyBytes(key)
	if err := c.lockNode(n.addr); err != nil {
		return false, err
	}
	fresh, err := c.readNodeRemote(n.addr, n.hdr.kind)
	if err != nil {
		c.unlockNode(n.addr)
		return false, err
	}
	if !fresh.hdr.valid {
		c.unlockNode(n.addr)
		c.cn.cacheDrop(n.addr)
		return false, errRestart
	}

	// Case C: the key diverges inside this node's compressed prefix.
	if p := prefixMatch(fresh.hdr, kb); p < fresh.hdr.prefixLen {
		err := c.prefixSplit(fresh, path, p, kb, leafWord)
		return err == nil, err
	}

	d := fresh.hdr.depth + fresh.hdr.prefixLen
	if d >= 8 {
		c.unlockNode(n.addr)
		return false, fmt.Errorf("smartidx: key %#x: path exhausted at depth %d", key, d)
	}
	existing, ok := fresh.children[kb[d]]

	switch {
	case !ok || existing == 0:
		// Case A: free slot.
		if fresh.nSlots >= kindSlots[fresh.hdr.kind] {
			err := c.expand(fresh, path, kb[d], leafWord)
			return err == nil, err
		}
		var slotIdx int
		var setIdx bool
		if fresh.hdr.kind == kindN256 {
			slotIdx = int(kb[d]) // Node256 slots are keybyte-indexed
		} else {
			slotIdx, setIdx = c.pickFreeSlot(fresh)
			if slotIdx < 0 {
				err := c.expand(fresh, path, kb[d], leafWord)
				return err == nil, err
			}
		}
		if err := c.writeSlotAndUnlock(fresh, slotIdx, slot{child: leafWord, keyByte: kb[d]}, setIdx); err != nil {
			return false, err
		}
		c.cn.cacheDrop(n.addr)
		return true, nil

	default:
		addr, leaf, _ := unpackChild(existing)
		if !leaf {
			// The key belongs deeper; a subtree grew under this byte
			// since our descent. Retry from the top.
			c.unlockNode(n.addr)
			c.cn.cacheDrop(n.addr)
			return false, errRestart
		}
		exKey, _, err := c.readLeaf(addr)
		if err != nil {
			c.unlockNode(n.addr)
			return false, err
		}
		slotIdx := fresh.slotOf[kb[d]]
		if exKey == key {
			// Upsert: swap the leaf pointer in place.
			if err := c.writeSlotAndUnlock(fresh, slotIdx, slot{child: leafWord, keyByte: kb[d]}, false); err != nil {
				return false, err
			}
			c.cn.cacheDrop(n.addr)
			return true, nil
		}
		// Case B: two distinct keys share the path; grow a Node4 with
		// the common suffix as its compressed prefix.
		err = c.leafSplit(fresh, slotIdx, kb[d], d+1, exKey, existing, key, leafWord)
		return err == nil, err
	}
}

// pickFreeSlot returns a free slot index in a locked, fresh node image
// (and whether the Node48 index byte must be set).
func (c *Client) pickFreeSlot(n *node) (int, bool) {
	used := make([]bool, kindSlots[n.hdr.kind])
	for _, i := range n.slotOf {
		used[i] = true
	}
	for i, u := range used {
		if !u {
			return i, n.hdr.kind == kindN48
		}
	}
	return -1, false
}

// leafSplit replaces a leaf pointer with a new Node4 holding both the
// existing leaf and the new one, compressed on their common suffix.
func (c *Client) leafSplit(n *node, slotIdx int, kbyte byte, depth int, exKey uint64, exWord uint64, key uint64, leafWord uint64) error {
	c.obs.Splits.Inc()
	ka, kn := keyBytes(exKey), keyBytes(key)
	common := 0
	for depth+common < 8 && ka[depth+common] == kn[depth+common] {
		common++
	}
	if depth+common >= 8 {
		c.unlockNode(n.addr)
		return fmt.Errorf("smartidx: identical key paths for distinct keys %#x %#x", exKey, key)
	}
	n4 := &node{
		hdr:      header{kind: kindN4, depth: depth, prefixLen: common, valid: true},
		children: map[byte]uint64{},
	}
	copy(n4.hdr.prefix[:], ka[depth:depth+common])
	n4.children[ka[depth+common]] = exWord
	n4.children[kn[depth+common]] = leafWord
	addr, err := c.alloc.Alloc(nodeSize(kindN4))
	if err != nil {
		c.unlockNode(n.addr)
		return err
	}
	if err := c.dc.Write(addr, encodeNode(n4)); err != nil {
		c.unlockNode(n.addr)
		return err
	}
	word := packChild(addr, false, kindN4)
	if err := c.writeSlotAndUnlock(n, slotIdx, slot{child: word, keyByte: kbyte}, false); err != nil {
		return err
	}
	c.cn.cacheDrop(n.addr)
	return nil
}

// expand replaces a full node with the next kind up, adding the new
// leaf, and swings the parent pointer. The old node is invalidated.
func (c *Client) expand(n *node, path []step, kbyte byte, leafWord uint64) error {
	c.obs.Splits.Inc()
	if len(path) == 0 {
		c.unlockNode(n.addr)
		return fmt.Errorf("smartidx: root Node256 cannot expand")
	}
	parent := path[len(path)-1]

	bigger := &node{
		hdr:      n.hdr,
		children: make(map[byte]uint64, n.nSlots+1),
	}
	bigger.hdr.kind = kindFor(n.nSlots + 1)
	if bigger.hdr.kind <= n.hdr.kind {
		bigger.hdr.kind = n.hdr.kind + 1
	}
	for kb, ch := range n.children {
		bigger.children[kb] = ch
	}
	bigger.children[kbyte] = leafWord
	newAddr, err := c.alloc.Alloc(nodeSize(bigger.hdr.kind))
	if err != nil {
		c.unlockNode(n.addr)
		return err
	}
	if err := c.dc.Write(newAddr, encodeNode(bigger)); err != nil {
		c.unlockNode(n.addr)
		return err
	}

	if err := c.swingParent(parent, n.addr, packChild(newAddr, false, bigger.hdr.kind)); err != nil {
		c.unlockNode(n.addr)
		return err
	}
	// Invalidate the old node (header flag write) and release its lock.
	if err := c.dc.WriteBatch(
		[]dmsim.GAddr{n.addr.Add(hdrOff + 3), n.addr},
		[][]byte{{0}, make([]byte, 8)},
	); err != nil {
		return err
	}
	c.cn.cacheDrop(n.addr)
	return nil
}

// prefixSplit handles divergence inside a node's compressed prefix: a
// new Node4 takes over the common part, pointing at an adjusted copy of
// the old node and at the new leaf.
func (c *Client) prefixSplit(n *node, path []step, p int, kb [8]byte, leafWord uint64) error {
	c.obs.Splits.Inc()
	if len(path) == 0 {
		c.unlockNode(n.addr)
		return fmt.Errorf("smartidx: root has no prefix to split")
	}
	parent := path[len(path)-1]

	// Adjusted copy of n with the prefix shortened past the split byte.
	adj := &node{hdr: n.hdr, children: n.children}
	adj.hdr.depth = n.hdr.depth + p + 1
	adj.hdr.prefixLen = n.hdr.prefixLen - p - 1
	var newPrefix [8]byte
	copy(newPrefix[:], n.hdr.prefix[p+1:n.hdr.prefixLen])
	adj.hdr.prefix = newPrefix
	adjAddr, err := c.alloc.Alloc(nodeSize(adj.hdr.kind))
	if err != nil {
		c.unlockNode(n.addr)
		return err
	}
	if err := c.dc.Write(adjAddr, encodeNode(adj)); err != nil {
		c.unlockNode(n.addr)
		return err
	}

	n4 := &node{
		hdr:      header{kind: kindN4, depth: n.hdr.depth, prefixLen: p, valid: true},
		children: map[byte]uint64{},
	}
	copy(n4.hdr.prefix[:], n.hdr.prefix[:p])
	n4.children[n.hdr.prefix[p]] = packChild(adjAddr, false, adj.hdr.kind)
	n4.children[kb[n.hdr.depth+p]] = leafWord
	n4Addr, err := c.alloc.Alloc(nodeSize(kindN4))
	if err != nil {
		c.unlockNode(n.addr)
		return err
	}
	if err := c.dc.Write(n4Addr, encodeNode(n4)); err != nil {
		c.unlockNode(n.addr)
		return err
	}

	if err := c.swingParent(parent, n.addr, packChild(n4Addr, false, kindN4)); err != nil {
		c.unlockNode(n.addr)
		return err
	}
	if err := c.dc.WriteBatch(
		[]dmsim.GAddr{n.addr.Add(hdrOff + 3), n.addr},
		[][]byte{{0}, make([]byte, 8)},
	); err != nil {
		return err
	}
	c.cn.cacheDrop(n.addr)
	return nil
}

// swingParent replaces the parent's child word oldAddr -> newWord under
// the parent's lock, verifying the slot still points at the old node.
func (c *Client) swingParent(parent step, oldAddr dmsim.GAddr, newWord uint64) error {
	if err := c.lockNode(parent.addr); err != nil {
		return err
	}
	pn, err := c.readNodeRemote(parent.addr, parent.kind)
	if err != nil {
		c.unlockNode(parent.addr)
		return err
	}
	cur, ok := pn.children[parent.kb]
	if !ok || !pn.hdr.valid {
		c.unlockNode(parent.addr)
		return errRestart
	}
	curAddr, leaf, _ := unpackChild(cur)
	if leaf || curAddr != oldAddr {
		c.unlockNode(parent.addr)
		return errRestart
	}
	slotIdx := pn.slotOf[parent.kb]
	if err := c.writeSlotAndUnlock(pn, slotIdx, slot{child: newWord, keyByte: parent.kb}, false); err != nil {
		return err
	}
	c.cn.cacheDrop(parent.addr)
	return nil
}

// Update overwrites an existing key's value out of place: new leaf
// block, then a pointer swap under the owning node's lock.
func (c *Client) Update(key uint64, value []byte) error {
	if sp := c.obs.Tracer.Begin("smart.update", "idx", c.dc.ID(), c.dc.Now()); sp != nil {
		defer func() { sp.End(c.dc.Now()) }()
	}
	if fl := c.dc.Flight(); fl != nil {
		fl.Begin(obs.OpUpdate, c.dc.Now())
		defer func() { fl.End(c.dc.Now()) }()
	}
	leafWord, err := c.writeLeaf(key, value)
	if err != nil {
		return err
	}
	for attempt := 0; attempt < maxRetries; attempt++ {
		n, _, child, err := c.descend(key)
		if err != nil {
			return err
		}
		if child == 0 {
			return ErrNotFound
		}
		done, err := c.replaceLeaf(n, key, leafWord, false)
		if err == errRestart {
			c.obs.Retries.Inc()
			c.backoff.Yield(c.dc)
			continue
		}
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		return ErrNotFound
	}
	return fmt.Errorf("smartidx: Update(%#x) exhausted", key)
}

// Delete removes a key by clearing its slot.
func (c *Client) Delete(key uint64) error {
	if sp := c.obs.Tracer.Begin("smart.delete", "idx", c.dc.ID(), c.dc.Now()); sp != nil {
		defer func() { sp.End(c.dc.Now()) }()
	}
	if fl := c.dc.Flight(); fl != nil {
		fl.Begin(obs.OpDelete, c.dc.Now())
		defer func() { fl.End(c.dc.Now()) }()
	}
	for attempt := 0; attempt < maxRetries; attempt++ {
		n, _, child, err := c.descend(key)
		if err != nil {
			return err
		}
		if child == 0 {
			return ErrNotFound
		}
		done, err := c.replaceLeaf(n, key, 0, true)
		if err == errRestart {
			c.obs.Retries.Inc()
			c.backoff.Yield(c.dc)
			continue
		}
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		return ErrNotFound
	}
	return fmt.Errorf("smartidx: Delete(%#x) exhausted", key)
}

// replaceLeaf swaps (or clears) the leaf slot for key under the node
// lock. done=false (with nil error) means the key is absent.
func (c *Client) replaceLeaf(n *node, key uint64, newWord uint64, clearing bool) (bool, error) {
	kb := keyBytes(key)
	if err := c.lockNode(n.addr); err != nil {
		return false, err
	}
	fresh, err := c.readNodeRemote(n.addr, n.hdr.kind)
	if err != nil {
		c.unlockNode(n.addr)
		return false, err
	}
	if !fresh.hdr.valid {
		c.unlockNode(n.addr)
		c.cn.cacheDrop(n.addr)
		return false, errRestart
	}
	if prefixMatch(fresh.hdr, kb) < fresh.hdr.prefixLen {
		c.unlockNode(n.addr)
		return false, nil
	}
	d := fresh.hdr.depth + fresh.hdr.prefixLen
	if d >= 8 {
		c.unlockNode(n.addr)
		return false, nil
	}
	child, ok := fresh.children[kb[d]]
	if !ok || child == 0 {
		c.unlockNode(n.addr)
		return false, nil
	}
	addr, leaf, _ := unpackChild(child)
	if !leaf {
		c.unlockNode(n.addr)
		c.cn.cacheDrop(n.addr)
		return false, errRestart
	}
	exKey, _, err := c.readLeaf(addr)
	if err != nil {
		c.unlockNode(n.addr)
		return false, err
	}
	if exKey != key {
		c.unlockNode(n.addr)
		return false, nil
	}
	slotIdx := fresh.slotOf[kb[d]]
	s := slot{child: newWord, keyByte: kb[d]}
	if clearing {
		s = slot{child: 0, keyByte: kb[d]}
	}
	if err := c.writeSlotAndUnlock(fresh, slotIdx, s, false); err != nil {
		return false, err
	}
	if clearing && fresh.hdr.kind == kindN48 {
		// Clear the index byte too so the slot can be reused.
		if err := c.dc.Write(n.addr.Add(uint64(n48IdxOff+int(kb[d]))), []byte{0}); err != nil {
			return false, err
		}
	}
	c.cn.cacheDrop(n.addr)
	return true, nil
}

// KV is one scan result.
type KV = offroute.KV

// scanOneSided walks the radix tree in byte order; every result costs
// its own small leaf READ — the IOPS-bound behaviour that makes SMART
// lose YCSB E in the paper (§5.2).
func (c *Client) scanOneSided(start uint64, count int) ([]KV, error) {
	for attempt := 0; attempt < maxRetries; attempt++ {
		var out []KV
		var acc [8]byte
		err := c.scanNode(c.ix.root, kindN256, acc, start, count, &out)
		if err == errRestart {
			c.obs.Retries.Inc()
			c.backoff.Yield(c.dc)
			continue
		}
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	return nil, fmt.Errorf("smartidx: Scan(%#x) exhausted", start)
}

// subtreeMax returns the largest key under a path whose first d bytes
// are fixed to acc[0:d] (the remaining bytes are 0xFF).
func subtreeMax(acc [8]byte, d int) uint64 {
	var hi [8]byte
	copy(hi[:], acc[:d])
	for i := d; i < 8; i++ {
		hi[i] = 0xFF
	}
	return binary.BigEndian.Uint64(hi[:])
}

func (c *Client) scanNode(addr dmsim.GAddr, kind int, acc [8]byte, start uint64, count int, out *[]KV) error {
	if len(*out) >= count {
		return nil
	}
	n, _, err := c.getNode(addr, kind)
	if err != nil {
		return err
	}
	if !n.hdr.valid {
		c.cn.cacheDrop(addr)
		n, err = c.readNodeRemote(addr, kind)
		if err != nil {
			return err
		}
		if !n.hdr.valid {
			// The replacement lives at a new address that only the
			// parent knows; the parent's stale cached pointer routes
			// here forever (see descend). errRestart drops each cached
			// node on the way back up the recursion.
			return errRestart
		}
	}
	copy(acc[n.hdr.depth:], n.hdr.prefix[:n.hdr.prefixLen])
	d := n.hdr.depth + n.hdr.prefixLen
	kbs := make([]int, 0, len(n.children))
	for kb := range n.children {
		kbs = append(kbs, int(kb))
	}
	sort.Ints(kbs)
	for _, kbi := range kbs {
		if len(*out) >= count {
			return nil
		}
		if d < 8 {
			acc[d] = byte(kbi)
			if subtreeMax(acc, d+1) < start {
				continue // whole subtree below the scan start
			}
		}
		child := n.children[byte(kbi)]
		caddr, leaf, ckind := unpackChild(child)
		if leaf {
			k, v, err := c.readLeaf(caddr)
			if err != nil {
				return err
			}
			if k >= start {
				*out = append(*out, KV{Key: k, Value: v})
			}
			continue
		}
		if err := c.scanNode(caddr, ckind, acc, start, count, out); err != nil {
			if err == errRestart {
				c.cn.cacheDrop(addr)
			}
			return err
		}
	}
	return nil
}
