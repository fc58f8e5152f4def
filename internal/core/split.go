package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"chime/internal/dmsim"
	"chime/internal/hopscotch"
	"chime/internal/nodelayout"
)

// This file implements node splits and Sherman-style up-propagation
// (§4.2.2, §4.4): a leaf that cannot absorb an insert moves its upper
// half to a newly allocated right sibling; the split key then propagates
// into the parent chain, splitting internal nodes (and eventually the
// root) as needed. The new node is always written before the old one, so
// it only becomes reachable once the old node's sibling pointer commits.

// kvPair is one resident entry of a leaf being split or built: its key,
// its value where it lies in the source image, and the slot it sits in.
type kvPair struct {
	key  uint64
	val  []byte
	slot int
}

// splitLeaf splits a locked, fully fetched leaf (moveRight), releases the
// lock the way it was locked (local: holding the CN's lock-table slot)
// and propagates the split through path, the internal nodes the writer
// routed through. The pending insert key is NOT placed; the caller
// retraverses and retries, which is guaranteed to land in a node with
// room.
func (c *Client) splitLeaf(leaf dmsim.GAddr, path []pathEntry, im *leafImage, meta leafMeta, lw lockWord, pendingKey uint64, local bool) error {
	c.cn.splits.Add(1)
	defer c.cn.splits.Add(-1)
	rightAddr, splitKey, err := c.moveRight(leaf, im, meta, pendingKey)
	if err != nil {
		c.unlockLeaf(leaf, lw, local)
		return err
	}
	if err := c.unlockLeaf(leaf, recomputeLockWord(im), local); err != nil {
		return err
	}
	return c.propagateSplit(path, 0, splitKey, rightAddr)
}

// moveRight allocates and writes the new right node of a split and
// rewrites the old node at leaf from im: moved entries cleared, sibling
// pointer and fences updated.
func (c *Client) moveRight(leaf dmsim.GAddr, im *leafImage, meta leafMeta, pendingKey uint64) (rightAddr dmsim.GAddr, splitKey uint64, err error) {
	c.obs.Splits.Inc()
	lay := c.ix.leaf

	// The resident entries in key order. The leaf is locked and im is this
	// client's until the split is written, so values stay where they are.
	kvs := c.splitKVs[:0]
	for i := 0; i < lay.span; i++ {
		if e := im.entry(i); e.occupied {
			kvs = append(kvs, kvPair{key: e.key, val: e.value, slot: i})
		}
	}
	c.splitKVs = kvs[:0]
	if len(kvs) < 2 {
		// A split cannot help a node this empty: the insert failed from
		// pathological collisions, not from capacity.
		return rightAddr, 0, fmt.Errorf("core: leaf %v: hopscotch neighborhood saturated with %d keys (key %#x)",
			leaf, len(kvs), pendingKey)
	}
	slices.SortFunc(kvs, func(a, b kvPair) int { return cmp.Compare(a.key, b.key) })
	var keyBuf [64]uint64 // the default span: a wider leaf's keys go to the heap
	keys := keyBuf[:0]
	for _, kv := range kvs {
		keys = append(keys, kv.key)
	}
	prev, havePrev := c.placed.At(0)
	splitAt, run := nodelayout.SplitPoint(keys, pendingKey, prev, havePrev)
	if run {
		c.obs.RunSplits.Inc()
	}

	// Move fewer keys if the right node's hopscotch build fails
	// (vanishingly rare below full load).
	var rightIm *leafImage
	for ; splitAt < len(kvs); splitAt++ {
		var ok bool
		if rightIm, ok = buildLeafImage(lay, kvs[splitAt:]); ok {
			break
		}
	}
	if rightIm == nil {
		return rightAddr, 0, fmt.Errorf("core: leaf %v: could not rebuild right node", leaf)
	}
	defer lay.putImage(rightIm)
	splitKey = kvs[splitAt].key
	if rightAddr, err = c.alloc.Alloc(lay.size); err != nil {
		return rightAddr, 0, err
	}
	rightIm.setAllMeta(leafMeta{
		valid:    true,
		sibling:  meta.sibling,
		fenceInf: meta.fenceInf,
		fenceHi:  meta.fenceHi,
	})
	copy(rightIm.buf[:8], c.lockBytes(recomputeLockWord(rightIm)))
	if err := c.dc.Write(rightAddr, rightIm.buf); err != nil {
		return rightAddr, 0, err
	}

	// Rewrite the old node: clear moved entries and their home-bitmap
	// bits; this is a node write, so bump NV across the node.
	for _, kv := range kvs[splitAt:] {
		home := lay.homeOf(kv.key)
		hEntry := im.entry(home)
		d := ((kv.slot-home)%lay.span + lay.span) % lay.span
		hEntry.hopBM &^= 1 << uint(d)
		im.setEntryNoBump(home, hEntry)
		e := im.entry(kv.slot)
		e.occupied = false
		im.setEntryNoBump(kv.slot, e)
	}
	im.setAllMeta(leafMeta{
		valid:    true,
		sibling:  rightAddr,
		fenceInf: false,
		fenceHi:  splitKey,
	})
	im.bumpAllNV()

	return rightAddr, splitKey, c.dc.Write(leaf.Add(lineSize), im.buf[lineSize:])
}

// buildLeafImage constructs a fresh leaf image holding the given pairs
// via local hopscotch insertion. It reports ok=false when some key
// cannot be placed (caller adjusts the split point).
func buildLeafImage(lay *leafLayout, kvs []kvPair) (*leafImage, bool) {
	im := lay.getImageZeroed()
	var hopBuf [32]int
	hop := hopBuf[:0]
	for _, kv := range kvs {
		home := lay.homeOf(kv.key)
		moves, free, err := hopscotch.Plan(lay.span, lay.h, home,
			func(i int) bool { occupied, _, _ := im.slot(i); return occupied },
			func(i int) int { _, _, key := im.slot(i); return lay.homeOf(key) })
		if err != nil {
			lay.putImage(im)
			return nil, false
		}
		hop = im.hopIn(hop[:0], moves, free, home, kv.key, kv.val, false)
	}
	return im, true
}

// recomputeLockWord derives the exact vacancy bitmap and argmax from a
// complete image (used at node writes, where full information exists).
func recomputeLockWord(im *leafImage) lockWord {
	lay := im.lay
	lw := lockWord{}
	var maxKey uint64
	for g := 0; g < lay.vacGroups; g++ {
		lo, hi := groupRange(g, lay.vacPerBit, lay.span)
		fullG := true
		for i := lo; i < hi; i++ {
			e := im.entry(i)
			if !e.occupied {
				fullG = false
			} else if !lw.argmaxValid || e.key > maxKey {
				maxKey = e.key
				lw.argmax = i
				lw.argmaxValid = true
			}
		}
		if fullG {
			lw.vacancy |= 1 << uint(g)
		}
	}
	return lw
}

// propagateSplit inserts (splitKey, rightAddr) into the parent level
// after a split of a node at childLevel, following the paper's Step 1–3.
func (c *Client) propagateSplit(path []pathEntry, childLevel uint8, splitKey uint64, rightAddr dmsim.GAddr) error {
	// Find the recorded parent at childLevel+1 (path runs root→level 1).
	parentLevel := childLevel + 1
	var parentAddr dmsim.GAddr
	for _, pe := range path {
		if pe.level == parentLevel {
			parentAddr = pe.addr
			break
		}
	}
	for attempt := 0; attempt < maxRetries; attempt++ {
		if parentAddr.IsNil() {
			// Either the split node was the root, or the tree grew while
			// we worked. Re-check the root.
			if err := c.refreshRoot(); err != nil {
				return err
			}
			if c.rootLevel == childLevel {
				// Step 3: allocate a new root.
				done, err := c.growRoot(childLevel, splitKey, rightAddr)
				if err != nil {
					return err
				}
				if done {
					return nil
				}
				continue // lost the root race; find the new parent
			}
			addr, err := c.findParentAt(parentLevel, splitKey)
			if err != nil {
				return err
			}
			parentAddr = addr
		}

		done, retryAddr, err := c.insertIntoParent(parentAddr, parentLevel, splitKey, rightAddr, path)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		parentAddr = retryAddr // nil forces a re-find
		c.backoff.Yield(c.dc)
	}
	return fmt.Errorf("core: propagateSplit(%#x): retries exhausted", splitKey)
}

// growRoot performs Step 3: allocate a new root pointing at the old root
// and the new right node, then CAS the super block. Reports done=false
// when another client won the race.
func (c *Client) growRoot(oldLevel uint8, splitKey uint64, rightAddr dmsim.GAddr) (bool, error) {
	oldRoot, curLevel := c.rootAddr, c.rootLevel
	if curLevel != oldLevel {
		return false, nil
	}
	newRoot, err := c.dc.AllocRPC(0, c.ix.inner.size) // roots live on MN 0
	if err != nil {
		return false, err
	}
	n := &internalNode{
		internalHeader: internalHeader{
			level:    oldLevel + 1,
			valid:    true,
			fenceInf: true,
			leftmost: oldRoot,
		},
		addr:    newRoot,
		entries: []pivotEntry{{pivot: splitKey, child: rightAddr}},
	}
	if err := c.dc.Write(newRoot, c.ix.inner.encodeInternal(n, nil)); err != nil {
		return false, err
	}
	prev, ok, err := c.dc.CAS(c.ix.super, packSuper(oldRoot, oldLevel), packSuper(newRoot, oldLevel+1))
	if err != nil {
		return false, err
	}
	if !ok {
		c.rootAddr, c.rootLevel = unpackSuper(prev)
		return false, nil
	}
	c.rootAddr, c.rootLevel = newRoot, oldLevel+1
	return true, nil
}

// lockNode takes the lock word at addr with a synchronous CAS loop
// (lockSwap, lockLost): an internal node's (leaf false), or a leaf's for
// a merge (merge.go), which counts its lock backoffs. It returns the
// previous word, and stolen when the lock was taken from an expired
// lease; no repair read is needed for an internal node — every caller
// re-reads the node under the lock before touching it.
func (c *Client) lockNode(addr dmsim.GAddr, leaf bool) (prev uint64, stolen bool, err error) {
	for try := 0; try < maxRetries; try++ {
		word, mask := c.lockSwap(leaf)
		prev, ok, err := c.dc.MaskedCAS(addr, 0, word, lockBit, mask)
		if err != nil {
			return 0, false, err
		}
		if !ok {
			if stolen, err = c.lockLost(addr, prev); err != nil {
				return 0, false, err
			}
		}
		if ok || stolen {
			c.backoff.Reset()
			return prev, stolen, nil
		}
		if leaf {
			c.obs.LockBackoffs.Inc()
		}
	}
	return 0, false, fmt.Errorf("core: node %v: lock starved", addr)
}

func (c *Client) unlockNode(addr dmsim.GAddr) error {
	return c.dc.Write(addr, c.lockBytes(lockWord{}))
}

// insertIntoParent is Step 2: lock the candidate parent, validate that
// it still covers the split key (chasing B-link siblings otherwise),
// insert the routing entry, and split the parent when full. Returns
// done=false with a new candidate address (or nil to re-find) when the
// parent moved.
func (c *Client) insertIntoParent(addr dmsim.GAddr, level uint8, splitKey uint64, rightAddr dmsim.GAddr, path []pathEntry) (bool, dmsim.GAddr, error) {
	for hops := 0; hops <= maxRetries; hops++ {
		if _, _, err := c.lockNode(addr, false); err != nil {
			return false, dmsim.NilGAddr, err
		}
		im, err := c.readInternal(addr)
		if err != nil {
			c.unlockNode(addr)
			return false, dmsim.NilGAddr, err
		}
		// About to be rewritten: decode in full. The fetched bytes stay
		// with the writer (encodeInternal bumps versions from them), so
		// the image does not go back to the free list.
		n, img := c.ix.inner.decodeInternal(addr, im), im.buf
		if !n.valid || n.level != level {
			c.unlockNode(addr)
			return false, dmsim.NilGAddr, nil // stale: re-find the parent
		}
		if !n.covers(splitKey) {
			sib := n.sibling
			c.unlockNode(addr)
			if !n.fenceInf && splitKey >= n.fenceHi && !sib.IsNil() {
				addr = sib
				continue
			}
			return false, dmsim.NilGAddr, nil
		}

		if n.insertEntry(c.ix.inner.span, pivotEntry{pivot: splitKey, child: rightAddr}) {
			img = c.ix.inner.encodeInternal(n, img)
			if err := c.writeInternalAndUnlock(addr, img); err != nil {
				return false, dmsim.NilGAddr, err
			}
			c.cn.cache.Put(addr, c.ix.inner.imageOf(img), int64(c.ix.inner.size))
			c.placed.Note(level, splitKey)
			return true, dmsim.NilGAddr, nil
		}

		// Parent full: split it, then recurse upward.
		if err := c.splitInternal(n, img, splitKey, rightAddr, path); err != nil {
			return false, dmsim.NilGAddr, err
		}
		return true, dmsim.NilGAddr, nil
	}
	return false, dmsim.NilGAddr, fmt.Errorf("core: insertIntoParent(%#x): sibling chain too long", splitKey)
}

// writeInternalAndUnlock writes a full internal image and clears the
// lock word in one doorbell batch.
func (c *Client) writeInternalAndUnlock(addr dmsim.GAddr, img []byte) error {
	return c.dc.WriteBatch(
		[]dmsim.GAddr{addr.Add(lineSize), addr},
		[][]byte{img[lineSize:], c.lockBytes(lockWord{})},
	)
}

// splitInternal splits a locked internal node n that is full, logically
// adding (splitKey→rightAddr): the pivot at the split point moves up.
func (c *Client) splitInternal(n *internalNode, prevImg []byte, splitKey uint64, rightAddr dmsim.GAddr, path []pathEntry) error {
	c.obs.Splits.Inc()
	pivots := make([]uint64, len(n.entries))
	for i, e := range n.entries {
		pivots[i] = e.pivot
	}
	prev, havePrev := c.placed.At(n.level)
	mid, run := nodelayout.SplitPoint(pivots, splitKey, prev, havePrev)
	if run {
		c.obs.RunSplits.Inc()
	}
	c.placed.Note(n.level, splitKey)

	// Insert into the (local) decoded node beyond capacity, then split.
	i := sort.Search(len(n.entries), func(i int) bool { return n.entries[i].pivot >= splitKey })
	n.entries = append(n.entries, pivotEntry{})
	copy(n.entries[i+1:], n.entries[i:])
	n.entries[i] = pivotEntry{pivot: splitKey, child: rightAddr}
	midKey := n.entries[mid].pivot

	newAddr, err := c.alloc.Alloc(c.ix.inner.size)
	if err != nil {
		c.unlockNode(n.addr)
		return err
	}
	right := &internalNode{
		internalHeader: internalHeader{
			level:    n.level,
			valid:    true,
			fenceLow: midKey,
			fenceInf: n.fenceInf,
			fenceHi:  n.fenceHi,
			sibling:  n.sibling,
			leftmost: n.entries[mid].child,
		},
		addr:    newAddr,
		entries: append([]pivotEntry(nil), n.entries[mid+1:]...),
	}
	if err := c.dc.Write(newAddr, c.ix.inner.encodeInternal(right, nil)); err != nil {
		c.unlockNode(n.addr)
		return err
	}

	n.entries = n.entries[:mid]
	n.fenceInf = false
	n.fenceHi = midKey
	n.sibling = newAddr
	img := c.ix.inner.encodeInternal(n, prevImg)
	if err := c.writeInternalAndUnlock(n.addr, img); err != nil {
		return err
	}
	c.cn.cache.Put(n.addr, c.ix.inner.imageOf(img), int64(c.ix.inner.size))

	return c.propagateSplit(path, n.level, midKey, newAddr)
}

// findParentAt traverses from the root (remote reads, no cache — the
// cache may be what went stale) to the node at the given level covering
// key.
func (c *Client) findParentAt(level uint8, key uint64) (dmsim.GAddr, error) {
	for attempt := 0; attempt < maxRetries; attempt++ {
		if err := c.refreshRoot(); err != nil {
			return dmsim.NilGAddr, err
		}
		if c.rootLevel < level {
			c.backoff.Yield(c.dc)
			continue
		}
		cur := c.rootAddr
		for ok := true; ok; {
			n, err := c.readInternal(cur)
			if err != nil {
				return dmsim.NilGAddr, err
			}
			r := n.route(key)
			c.putInternal(n)
			switch {
			case r.kind == routeRight:
				cur = r.child
			case r.kind == routeLost || r.level < level:
				ok = false
			case r.level == level:
				return cur, nil
			default:
				cur = r.child
			}
		}
		c.backoff.Yield(c.dc)
	}
	return dmsim.NilGAddr, fmt.Errorf("core: findParentAt(level %d, %#x): retries exhausted", level, key)
}
