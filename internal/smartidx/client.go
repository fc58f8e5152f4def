package smartidx

import (
	"encoding/binary"
	"fmt"

	"chime/internal/dmsim"
	"chime/internal/lease"
	"chime/internal/nodecache"
	"chime/internal/obs"
	"chime/internal/offroute"
)

// ComputeNode holds the CN-shared radix-node cache. Unlike the B+-tree
// indexes, the node population scales with the key count (the KV-
// discrete trade-off), which is what makes SMART's cache so large.
type ComputeNode struct {
	ix *Index

	// cache holds nodes of every kind, each costing its kind's size,
	// under one mutex: one LRU over the whole CN.
	cache *nodecache.Cache[*node]

	obs obs.IndexInstruments
}

// SetObserver attaches an observability sink; clients created afterward
// count retries, lock backoffs and structural splits into it and emit
// per-operation trace spans when the sink traces. Call before
// NewClient. With no sink every instrumented call is a no-op.
func (cn *ComputeNode) SetObserver(s *obs.Sink) {
	cn.obs = obs.ResolveIndex(s)
}

// NewComputeNode creates CN state with a cache byte budget.
func (ix *Index) NewComputeNode(cacheBytes int64) *ComputeNode {
	return &ComputeNode{ix: ix, cache: nodecache.New[*node](cacheBytes, 1)}
}

// CacheStats reports hit/miss/occupancy counters.
func (cn *ComputeNode) CacheStats() (hits, misses, nodes, usedBytes int64) {
	st := cn.cache.Stats()
	return st.Hits, st.Misses, int64(st.Nodes), st.UsedBytes
}

// Client is one SMART client; not safe for concurrent use.
type Client struct {
	cn      *ComputeNode
	ix      *Index
	dc      *dmsim.Client
	alloc   *dmsim.ChunkAllocator
	backoff dmsim.Backoff

	// The nodes this client fetches for itself, by what fetches them: the
	// descent (and a search's confirming re-read), a writer's re-read of
	// the node it locked, swingParent's of that node's parent, and each
	// level of a scan's recursion. A node is good until its set's next
	// fetch (nodeSet), unless the CN cache took it.
	walk, locked, parent nodeSet
	scanLevels           []nodeSet

	// Staging one op reuses: the descent's path, the image a new node is
	// laid out in before it is written, a leaf block, and the pieces of a
	// slot write.
	path    []step
	build   []byte
	leaf    []byte
	slotBuf [slotSize]byte
	idxByte [1]byte
	addrs   []dmsim.GAddr
	bufs    [][]byte

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
		build: make([]byte, nodeSize(kindN256)),
		leaf:  make([]byte, cn.ix.leafSz),
	}
	c.port = c.newPort()
	return c
}

// DM exposes the fabric client for the benchmark harness.
func (c *Client) DM() *dmsim.Client { return c.dc }

// fetch reads the node of the given kind at addr into set's node of that
// kind.
func (c *Client) fetch(set *nodeSet, addr dmsim.GAddr, kind int) (*node, error) {
	n := set.take(kind)
	if err := c.dc.Read(addr, n.img); err != nil {
		return nil, err
	}
	n.arrived(addr)
	return n, nil
}

// keep offers a valid node just fetched into set to the CN cache.
func (c *Client) keep(set *nodeSet, n *node) {
	if n.hdr.valid && c.cn.cache.Put(n.addr, n, int64(nodeSize(n.hdr.kind))) {
		set.gone(n)
	}
}

// getNode returns a node from the cache, or fetched into set (and
// offered to the cache), and whether it came from the cache.
func (c *Client) getNode(set *nodeSet, addr dmsim.GAddr, kind int) (*node, bool, error) {
	if n := c.cn.cache.Get(addr); n != nil {
		return n, true, nil
	}
	n, err := c.fetch(set, addr, kind)
	if err != nil {
		return nil, false, err
	}
	c.keep(set, n)
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

// nodeRef names a remote node: where it is and, from the pointer that
// led there, how many bytes it has.
type nodeRef struct {
	addr dmsim.GAddr
	kind int
}

// step is one level of a traversal, kept for structural updates.
type step struct {
	nodeRef
	kb byte // key byte used to leave this node
}

// descend walks to the node responsible for key's next divergence. It
// returns that node's address and kind, the path of steps taken
// (excluding it; the client's own slice, good until its next descend),
// and the packed child value found under the key byte (0 if none). It
// retries on invalidated nodes.
func (c *Client) descend(key uint64) (nodeRef, []step, uint64, error) {
	kb := keyBytes(key)
	for attempt := 0; attempt < maxRetries; attempt++ {
		cur, kind := c.ix.root, kindN256
		path := c.path[:0]
		restart := false
		for hop := 0; hop < 10 && !restart; hop++ {
			n, fromCache, err := c.getNode(&c.walk, cur, kind)
			if err != nil {
				return nodeRef{}, nil, 0, err
			}
			at := nodeRef{n.addr, n.hdr.kind}
			if !n.hdr.valid {
				// The node was replaced (expansion / prefix split). Drop
				// it AND the cached parent that still routes here, or the
				// stale pointer would recur forever.
				c.cn.cache.Drop(cur)
				if len(path) > 0 {
					c.cn.cache.Drop(path[len(path)-1].addr)
				}
				restart = true
				break
			}
			if prefixMatch(n.hdr, kb) < n.hdr.prefixLen {
				// Prefix diverges: this node is where the key belongs
				// (insert splits the prefix; search reports not-found).
				return at, path, 0, nil
			}
			d := n.hdr.depth + n.hdr.prefixLen
			if d >= 8 {
				return at, path, 0, nil
			}
			child, _ := n.childAt(kb[d])
			if child == 0 && fromCache {
				// A cached copy cannot observe remote invalidation: the
				// remote node may have been replaced (expansion/prefix
				// split) with this child present in the replacement.
				// Confirm absence against remote memory before trusting
				// the miss.
				fresh, err := c.fetch(&c.walk, cur, kind)
				if err != nil {
					return nodeRef{}, nil, 0, err
				}
				if !fresh.hdr.valid {
					c.cn.cache.Drop(cur)
					if len(path) > 0 {
						c.cn.cache.Drop(path[len(path)-1].addr)
					}
					restart = true
					break
				}
				at = nodeRef{fresh.addr, fresh.hdr.kind}
				child, _ = fresh.childAt(kb[d])
				c.keep(&c.walk, fresh)
			}
			if child == 0 {
				return at, path, 0, nil
			}
			addr, leaf, ckind := unpackChild(child)
			if leaf {
				return at, path, child, nil
			}
			path = append(path, step{nodeRef: nodeRef{cur, kind}, kb: kb[d]})
			c.path = path
			cur, kind = addr, ckind
		}
		if !restart {
			return nodeRef{}, nil, 0, fmt.Errorf("smartidx: descend(%#x): path too deep", key)
		}
		c.obs.Retries.Inc()
		c.backoff.Yield(c.dc)
	}
	return nodeRef{}, nil, 0, fmt.Errorf("smartidx: descend(%#x) exhausted", key)
}

// readLeaf fetches a leaf block into buf and decodes (key, value); the
// value aliases buf.
func (c *Client) readLeaf(addr dmsim.GAddr, buf []byte) (uint64, []byte, error) {
	if err := c.dc.Read(addr, buf); err != nil {
		return 0, nil, err
	}
	return binary.LittleEndian.Uint64(buf[:8]), buf[8:], nil
}

// searchOneSided performs a point query: cached radix descent plus one
// small leaf READ — amplification ≈ 1, SMART's defining property.
func (c *Client) searchOneSided(key uint64) ([]byte, error) {
	for attempt := 0; attempt < maxRetries; attempt++ {
		at, _, child, err := c.descend(key)
		if err != nil {
			return nil, err
		}
		if child == 0 {
			// Could be a stale cached node missing a fresh install:
			// re-read remotely once before declaring absence.
			if fresh, err2 := c.fetch(&c.walk, at.addr, at.kind); err2 == nil && fresh.hdr.valid {
				d := fresh.hdr.depth + fresh.hdr.prefixLen
				kb := keyBytes(key)
				if d < 8 {
					child, _ = fresh.childAt(kb[d])
				}
				diverges := prefixMatch(fresh.hdr, kb) < fresh.hdr.prefixLen
				c.keep(&c.walk, fresh)
				if diverges {
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
			c.cn.cache.Drop(at.addr)
			c.backoff.Yield(c.dc)
			continue
		}
		k, v, err := c.readLeaf(addr, make([]byte, c.ix.leafSz)) // the caller's result
		if err != nil {
			return nil, err
		}
		if k != key {
			// Stale cache or concurrent structural change.
			c.obs.Retries.Inc()
			c.cn.cache.Drop(at.addr)
			if _, err := c.fetch(&c.walk, at.addr, at.kind); err != nil {
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

// unlocked is a released lock word, as a write's source buffer.
var unlocked [8]byte

func (c *Client) unlockNode(addr dmsim.GAddr) error {
	return c.dc.Write(addr, unlocked[:])
}

// writeSlotAndUnlock writes one slot record (and, for Node48, its index
// byte) plus the unlock in a single doorbell batch.
func (c *Client) writeSlotAndUnlock(n *node, slotIdx int, s slot, setIdx bool) error {
	clear(c.slotBuf[:])
	binary.LittleEndian.PutUint64(c.slotBuf[:8], s.child)
	c.slotBuf[8] = s.keyByte
	c.addrs = append(c.addrs[:0], n.addr.Add(uint64(slotOff(n.hdr.kind, slotIdx))))
	c.bufs = append(c.bufs[:0], c.slotBuf[:])
	if n.hdr.kind == kindN48 && setIdx {
		c.idxByte[0] = byte(slotIdx + 1)
		c.addrs = append(c.addrs, n.addr.Add(uint64(n48IdxOff+int(s.keyByte))))
		c.bufs = append(c.bufs, c.idxByte[:])
	}
	c.addrs = append(c.addrs, n.addr)
	c.bufs = append(c.bufs, unlocked[:])
	return c.dc.WriteBatch(c.addrs, c.bufs)
}

// invalidateAndUnlock clears a replaced node's valid flag and releases
// its lock in one doorbell batch.
func (c *Client) invalidateAndUnlock(addr dmsim.GAddr) error {
	c.idxByte[0] = 0
	c.addrs = append(c.addrs[:0], addr.Add(hdrOff+3), addr)
	c.bufs = append(c.bufs[:0], c.idxByte[:], unlocked[:])
	return c.dc.WriteBatch(c.addrs, c.bufs)
}

// writeLeaf allocates and writes a new leaf block, returning its tagged
// child word.
func (c *Client) writeLeaf(key uint64, value []byte) (uint64, error) {
	if len(value) != c.ix.opts.ValueSize {
		return 0, fmt.Errorf("smartidx: value is %dB, index stores %dB", len(value), c.ix.opts.ValueSize)
	}
	binary.LittleEndian.PutUint64(c.leaf[:8], key)
	copy(c.leaf[8:], value)
	addr, err := c.alloc.Alloc(len(c.leaf))
	if err != nil {
		return 0, err
	}
	if err := c.dc.Write(addr, c.leaf); err != nil {
		return 0, err
	}
	return packChild(addr, true, 0), nil
}

// writeNode lays a new node out in the client's build image and writes it
// to freshly allocated remote memory.
func (c *Client) writeNode(hdr header, src *node, extra ...slot) (dmsim.GAddr, error) {
	img := c.build[:nodeSize(hdr.kind)]
	encodeNode(img, hdr, src, extra...)
	addr, err := c.alloc.Alloc(len(img))
	if err != nil {
		return dmsim.NilGAddr, err
	}
	return addr, c.dc.Write(addr, img)
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
		at, path, _, err := c.descend(key)
		if err != nil {
			return err
		}
		done, err := c.install(at, path, key, leafWord)
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

// lockFresh locks the node at and re-reads it under the lock into the
// client's locked set. errRestart (lock released, cached copy dropped)
// means the node was replaced meanwhile.
func (c *Client) lockFresh(at nodeRef) (*node, error) {
	if err := c.lockNode(at.addr); err != nil {
		return nil, err
	}
	fresh, err := c.fetch(&c.locked, at.addr, at.kind)
	if err != nil {
		c.unlockNode(at.addr)
		return nil, err
	}
	if !fresh.hdr.valid {
		c.unlockNode(at.addr)
		c.cn.cache.Drop(at.addr)
		return nil, errRestart
	}
	return fresh, nil
}

// install publishes leafWord for key at the node a descent ended on. It
// handles the four structural cases: free slot, existing-leaf replacement
// or split, prefix split, and node expansion.
func (c *Client) install(at nodeRef, path []step, key uint64, leafWord uint64) (bool, error) {
	kb := keyBytes(key)
	fresh, err := c.lockFresh(at)
	if err != nil {
		return false, err
	}

	// Case C: the key diverges inside this node's compressed prefix.
	if p := prefixMatch(fresh.hdr, kb); p < fresh.hdr.prefixLen {
		err := c.prefixSplit(fresh, path, p, kb, leafWord)
		return err == nil, err
	}

	d := fresh.hdr.depth + fresh.hdr.prefixLen
	if d >= 8 {
		c.unlockNode(at.addr)
		return false, fmt.Errorf("smartidx: key %#x: path exhausted at depth %d", key, d)
	}
	existing, slotIdx := fresh.childAt(kb[d])

	if existing == 0 {
		// Case A: free slot.
		children := fresh.count()
		slotIdx = int(kb[d]) // Node256 slots are keybyte-indexed
		if children < kindSlots[fresh.hdr.kind] && fresh.hdr.kind != kindN256 {
			slotIdx = fresh.pickFreeSlot()
		}
		if children >= kindSlots[fresh.hdr.kind] || slotIdx < 0 {
			err := c.expand(fresh, path, children, kb[d], leafWord)
			return err == nil, err
		}
		if err := c.writeSlotAndUnlock(fresh, slotIdx, slot{child: leafWord, keyByte: kb[d]}, true); err != nil {
			return false, err
		}
		c.cn.cache.Drop(at.addr)
		return true, nil
	}

	addr, leaf, _ := unpackChild(existing)
	if !leaf {
		// The key belongs deeper; a subtree grew under this byte
		// since our descent. Retry from the top.
		c.unlockNode(at.addr)
		c.cn.cache.Drop(at.addr)
		return false, errRestart
	}
	exKey, _, err := c.readLeaf(addr, c.leaf)
	if err != nil {
		c.unlockNode(at.addr)
		return false, err
	}
	if exKey == key {
		// Upsert: swap the leaf pointer in place.
		if err := c.writeSlotAndUnlock(fresh, slotIdx, slot{child: leafWord, keyByte: kb[d]}, false); err != nil {
			return false, err
		}
		c.cn.cache.Drop(at.addr)
		return true, nil
	}
	// Case B: two distinct keys share the path; grow a Node4 with
	// the common suffix as its compressed prefix.
	err = c.leafSplit(fresh, slotIdx, kb[d], d+1, exKey, existing, key, leafWord)
	return err == nil, err
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
	hdr := header{kind: kindN4, depth: depth, prefixLen: common, valid: true}
	copy(hdr.prefix[:], ka[depth:depth+common])
	addr, err := c.writeNode(hdr, nil,
		slot{child: exWord, keyByte: ka[depth+common]}, slot{child: leafWord, keyByte: kn[depth+common]})
	if err != nil {
		c.unlockNode(n.addr)
		return err
	}
	word := packChild(addr, false, kindN4)
	if err := c.writeSlotAndUnlock(n, slotIdx, slot{child: word, keyByte: kbyte}, false); err != nil {
		return err
	}
	c.cn.cache.Drop(n.addr)
	return nil
}

// expand replaces a full node (of `children` children) with the next
// kind up, adding the new leaf, and swings the parent pointer. The old
// node is invalidated.
func (c *Client) expand(n *node, path []step, children int, kbyte byte, leafWord uint64) error {
	c.obs.Splits.Inc()
	if len(path) == 0 {
		c.unlockNode(n.addr)
		return fmt.Errorf("smartidx: root Node256 cannot expand")
	}
	parent := path[len(path)-1]

	bigger := n.hdr
	bigger.kind = max(kindFor(children+1), n.hdr.kind+1)
	newAddr, err := c.writeNode(bigger, n, slot{child: leafWord, keyByte: kbyte})
	if err != nil {
		c.unlockNode(n.addr)
		return err
	}
	return c.replaceNode(n, parent, packChild(newAddr, false, bigger.kind))
}

// replaceNode finishes a structural change that built a replacement for
// the locked node n: the parent's pointer is swung to newWord, then n is
// invalidated (header flag write) and its lock released.
func (c *Client) replaceNode(n *node, parent step, newWord uint64) error {
	if err := c.swingParent(parent, n.addr, newWord); err != nil {
		c.unlockNode(n.addr)
		return err
	}
	if err := c.invalidateAndUnlock(n.addr); err != nil {
		return err
	}
	c.cn.cache.Drop(n.addr)
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
	adj := n.hdr
	adj.depth = n.hdr.depth + p + 1
	adj.prefixLen = n.hdr.prefixLen - p - 1
	adj.prefix = [8]byte{}
	copy(adj.prefix[:], n.hdr.prefix[p+1:n.hdr.prefixLen])
	adjAddr, err := c.writeNode(adj, n)
	if err != nil {
		c.unlockNode(n.addr)
		return err
	}

	n4 := header{kind: kindN4, depth: n.hdr.depth, prefixLen: p, valid: true}
	copy(n4.prefix[:], n.hdr.prefix[:p])
	n4Addr, err := c.writeNode(n4, nil,
		slot{child: packChild(adjAddr, false, adj.kind), keyByte: n.hdr.prefix[p]},
		slot{child: leafWord, keyByte: kb[n.hdr.depth+p]})
	if err != nil {
		c.unlockNode(n.addr)
		return err
	}
	return c.replaceNode(n, parent, packChild(n4Addr, false, kindN4))
}

// swingParent replaces the parent's child word oldAddr -> newWord under
// the parent's lock, verifying the slot still points at the old node.
func (c *Client) swingParent(parent step, oldAddr dmsim.GAddr, newWord uint64) error {
	if err := c.lockNode(parent.addr); err != nil {
		return err
	}
	pn, err := c.fetch(&c.parent, parent.addr, parent.kind)
	if err != nil {
		c.unlockNode(parent.addr)
		return err
	}
	cur, slotIdx := pn.childAt(parent.kb)
	if cur == 0 || !pn.hdr.valid {
		c.unlockNode(parent.addr)
		return errRestart
	}
	curAddr, leaf, _ := unpackChild(cur)
	if leaf || curAddr != oldAddr {
		c.unlockNode(parent.addr)
		return errRestart
	}
	if err := c.writeSlotAndUnlock(pn, slotIdx, slot{child: newWord, keyByte: parent.kb}, false); err != nil {
		return err
	}
	c.cn.cache.Drop(parent.addr)
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
	return c.replaceLeafOf(key, leafWord, "Update")
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
	return c.replaceLeafOf(key, 0, "Delete")
}

// replaceLeafOf descends to key's leaf slot and swaps newWord into it (0
// clears it), retrying while the tree changes under it.
func (c *Client) replaceLeafOf(key uint64, newWord uint64, op string) error {
	for attempt := 0; attempt < maxRetries; attempt++ {
		at, _, child, err := c.descend(key)
		if err != nil {
			return err
		}
		if child == 0 {
			return ErrNotFound
		}
		done, err := c.replaceLeaf(at, key, newWord)
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
	return fmt.Errorf("smartidx: %s(%#x) exhausted", op, key)
}

// replaceLeaf swaps newWord into the leaf slot for key under the node
// lock; 0 clears the slot. done=false (with nil error) means the key is
// absent.
func (c *Client) replaceLeaf(at nodeRef, key uint64, newWord uint64) (bool, error) {
	kb := keyBytes(key)
	fresh, err := c.lockFresh(at)
	if err != nil {
		return false, err
	}
	d := fresh.hdr.depth + fresh.hdr.prefixLen
	if prefixMatch(fresh.hdr, kb) < fresh.hdr.prefixLen || d >= 8 {
		c.unlockNode(at.addr)
		return false, nil
	}
	child, slotIdx := fresh.childAt(kb[d])
	if child == 0 {
		c.unlockNode(at.addr)
		return false, nil
	}
	addr, leaf, _ := unpackChild(child)
	if !leaf {
		c.unlockNode(at.addr)
		c.cn.cache.Drop(at.addr)
		return false, errRestart
	}
	exKey, _, err := c.readLeaf(addr, c.leaf)
	if err != nil {
		c.unlockNode(at.addr)
		return false, err
	}
	if exKey != key {
		c.unlockNode(at.addr)
		return false, nil
	}
	if err := c.writeSlotAndUnlock(fresh, slotIdx, slot{child: newWord, keyByte: kb[d]}, false); err != nil {
		return false, err
	}
	if newWord == 0 && fresh.hdr.kind == kindN48 {
		// Clear the index byte too so the slot can be reused.
		c.idxByte[0] = 0
		if err := c.dc.Write(at.addr.Add(uint64(n48IdxOff+int(kb[d]))), c.idxByte[:]); err != nil {
			return false, err
		}
	}
	c.cn.cache.Drop(at.addr)
	return true, nil
}

// KV is one scan result.
type KV = offroute.KV

// scanOneSided walks the radix tree in byte order; every result costs
// its own small leaf READ — the IOPS-bound behaviour that makes SMART
// lose YCSB E in the paper (§5.2).
func (c *Client) scanOneSided(sb *offroute.ScanBuf, start uint64, count int) error {
	for attempt := 0; attempt < maxRetries; attempt++ {
		sb.Reset(count, c.ix.opts.ValueSize)
		var acc [8]byte
		err := c.scanNode(0, nodeRef{c.ix.root, kindN256}, acc, start, count, sb)
		if err == errRestart {
			c.obs.Retries.Inc()
			c.backoff.Yield(c.dc)
			continue
		}
		return err
	}
	return fmt.Errorf("smartidx: Scan(%#x) exhausted", start)
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

// scanNode appends the in-range leaves under the node at, level levels
// below the root, in key order. A node the cache does not hold is
// fetched into this level's own set: it must outlive the recursion into
// its children.
func (c *Client) scanNode(level int, at nodeRef, acc [8]byte, start uint64, count int, sb *offroute.ScanBuf) error {
	if len(sb.Out) >= count {
		return nil
	}
	if level == len(c.scanLevels) {
		c.scanLevels = append(c.scanLevels, nodeSet{})
	}
	n, _, err := c.getNode(&c.scanLevels[level], at.addr, at.kind)
	if err != nil {
		return err
	}
	if !n.hdr.valid {
		c.cn.cache.Drop(at.addr)
		n, err = c.fetch(&c.scanLevels[level], at.addr, at.kind)
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
	for kb, child := n.next(0); kb < 256; kb, child = n.next(kb + 1) {
		if len(sb.Out) >= count {
			return nil
		}
		if d < 8 {
			acc[d] = byte(kb)
			if subtreeMax(acc, d+1) < start {
				continue // whole subtree below the scan start
			}
		}
		caddr, leaf, ckind := unpackChild(child)
		if leaf {
			k, v, err := c.readLeaf(caddr, c.leaf)
			if err != nil {
				return err
			}
			if k >= start {
				sb.Add(k, v)
			}
			continue
		}
		if err := c.scanNode(level+1, nodeRef{caddr, ckind}, acc, start, count, sb); err != nil {
			if err == errRestart {
				c.cn.cache.Drop(at.addr)
			}
			return err
		}
	}
	return nil
}
