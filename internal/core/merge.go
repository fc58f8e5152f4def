package core

import (
	"encoding/binary"

	"chime/internal/dmsim"
	"chime/internal/obs"
)

// Leaf merging (§4.4 Delete: "Otherwise, a node merge is triggered like
// DM B+ trees, where node-level versions are used to detect
// inconsistencies").
//
// Policy: a leaf that a delete leaves completely empty is unlinked from
// the B-link chain and its routing entry removed from the parent. The
// left sibling absorbs the victim's (empty) key range, keeping the
// fence invariants intact. Deadlock-freedom comes from a strict
// acquisition order — parent, then left sibling, then victim — and from
// the fact that no other code path holds more than one node lock at a
// time.
//
// A leaf that is its parent's leftmost child is not merged (its left
// sibling lives under a different parent); it stays valid and empty,
// ready to absorb future inserts. Node memory is not recycled (the
// allocator has no free list), matching the simulator's allocation
// model.

// maybeMergeLeaf is called after a delete observed a fully empty
// neighborhood with an all-clear vacancy bitmap. It confirms emptiness
// with a whole-node read and, when confirmed, performs the unlink.
// All failures are silent: merging is an optimization, never required
// for correctness.
func (c *Client) maybeMergeLeaf(addr dmsim.GAddr, key uint64) {
	// Confirm the leaf is empty outside any lock first (cheap bail-out).
	im, metaG, err := c.fetchWholeLeaf(addr)
	if err != nil {
		return
	}
	empty := im.meta(metaG).valid && leafEmpty(im)
	c.ix.leaf.putImage(im)
	if empty {
		c.mergeEmptyLeaf(addr, key)
	}
}

func leafEmpty(im *leafImage) bool {
	for i := 0; i < im.lay.span; i++ {
		if im.entry(i).occupied {
			return false
		}
	}
	return true
}

// mergeEmptyLeaf unlinks the (believed empty) leaf covering key. Every
// lock taken is released on the way out, in reverse order: the victim,
// the left leaf, the parent — unless the parent's rewrite released it.
// The images it reads go back to their pools on the way out too, after
// the writes made from them.
func (c *Client) mergeEmptyLeaf(victim dmsim.GAddr, key uint64) {
	// Locate the parent with a fresh remote walk — the cache may be
	// what is stale.
	parentAddr, err := c.findParentAt(1, key)
	if err != nil {
		return
	}
	if _, _, err := c.lockNode(parentAddr, false); err != nil {
		return
	}
	parentLocked := true
	defer func() {
		if parentLocked {
			c.unlockNode(parentAddr)
		}
	}()
	pim, err := c.readInternal(parentAddr)
	if err != nil {
		return
	}
	defer c.putInternal(pim)
	if !pim.valid || pim.level != 1 || !pim.covers(key) {
		return
	}

	// Identify the victim's routing entry and its left neighbor.
	child, entryIdx, _ := pim.childFor(key)
	if child != victim || entryIdx < 0 {
		// Either the tree moved, or the victim is the leftmost child
		// (entryIdx == -1): skip.
		return
	}
	leftAddr := pim.leftmost
	if entryIdx > 0 {
		leftAddr = pim.childAt(entryIdx - 1)
	}
	if leftAddr.IsNil() {
		return
	}

	// Lock left then victim (chain order).
	local := !c.ix.opts.LeaseLocks
	leftLW, err := c.lockLeaf(leftAddr)
	if err != nil {
		return
	}
	defer c.unlockLeaf(leftAddr, leftLW, local)
	victimLW, err := c.lockLeaf(victim)
	if err != nil {
		return
	}
	defer c.unlockLeaf(victim, victimLW, local)

	// Re-verify under the locks: victim still empty and valid, left
	// still points at it.
	vIm, vMetaG, err := c.fetchWholeLeaf(victim)
	if err != nil {
		return
	}
	defer c.ix.leaf.putImage(vIm)
	vMeta := vIm.meta(vMetaG)
	if !vMeta.valid || !leafEmpty(vIm) {
		return
	}
	lIm, lMetaG, err := c.fetchWholeLeaf(leftAddr)
	if err != nil {
		return
	}
	defer c.ix.leaf.putImage(lIm)
	if lMeta := lIm.meta(lMetaG); !lMeta.valid || lMeta.sibling != victim {
		return
	}

	// 1. Left absorbs the victim's range: sibling and fence move over.
	//    A node write: bump NV across the left node.
	lIm.setAllMeta(leafMeta{
		valid:    true,
		sibling:  vMeta.sibling,
		fenceInf: vMeta.fenceInf,
		fenceHi:  vMeta.fenceHi,
	})
	lIm.bumpAllNV()
	if err := c.dc.Write(leftAddr.Add(lineSize), lIm.buf[lineSize:]); err != nil {
		return
	}

	// 2. Invalidate the victim so readers holding its address restart.
	vIm.setAllMeta(leafMeta{valid: false, sibling: vMeta.sibling, fenceInf: vMeta.fenceInf, fenceHi: vMeta.fenceHi})
	vIm.bumpAllNV()
	if err := c.dc.Write(victim.Add(lineSize), vIm.buf[lineSize:]); err != nil {
		return
	}

	// 3. Remove the routing entry from the parent and release it. The
	//    parent is rewritten, so it is decoded in full, and its fetched
	//    bytes are what encodeInternal bumps versions from.
	parent := c.ix.inner.decodeInternal(parentAddr, pim)
	parent.entries = append(parent.entries[:entryIdx], parent.entries[entryIdx+1:]...)
	img := c.ix.inner.encodeInternal(parent, pim.buf)
	parentLocked = false
	if err := c.writeInternalAndUnlock(parentAddr, img); err != nil {
		return
	}
	c.cn.cache.Put(parentAddr, c.ix.inner.imageOf(img), int64(c.ix.inner.size))
	c.obs.Merges.Inc()
}

// lockLeaf takes a leaf's lock for a merge, which holds the parent and
// two leaves at once and so runs outside the write engine: the one-key
// write's lock stages as one synchronous loop — the CN's lock-table slot
// first outside LeaseLocks, which a failed acquire gives back — and
// returns the lock word's payload.
func (c *Client) lockLeaf(leaf dmsim.GAddr) (lw lockWord, err error) {
	fl := c.dc.Flight()
	defer fl.SetPhase(fl.SetPhase(obs.PhaseLockBackoff))
	if !c.ix.opts.LeaseLocks {
		if word, handover := c.cn.locks.Acquire(c.dc, leaf.Pack()); handover {
			return decodeLockWord(word), nil
		}
		defer func() {
			if err != nil {
				c.cn.locks.ReleaseRemote(c.dc, leaf.Pack())
			}
		}()
	}
	prev, stolen, err := c.lockNode(leafLockAddr(leaf), true)
	switch {
	case err != nil:
		return lockWord{}, err
	case stolen:
		// The dead holder took the payload with it: recompute it.
		im, _, err := c.fetchWholeLeaf(leaf)
		if err != nil {
			return lockWord{}, err
		}
		defer c.ix.leaf.putImage(im)
		return recomputeLockWord(im), nil
	case !c.ix.opts.PiggybackVacancy:
		var b [8]byte
		if err := c.dc.Read(leafLockAddr(leaf), b[:]); err != nil {
			return lockWord{}, err
		}
		prev = binary.LittleEndian.Uint64(b[:])
	}
	return decodeLockWord(prev), nil
}

// deleteLeftEmpty reports whether a delete's post-write window hints
// that the whole leaf might now be empty — no occupied entry in the
// neighborhood of home and an all-clear vacancy bitmap — which gates the
// more expensive whole-node check.
func deleteLeftEmpty(im *leafImage, home int, lw lockWord) bool {
	if lw.vacancy != 0 {
		return false
	}
	for d := 0; d < im.lay.h; d++ {
		if im.entry((home + d) % im.lay.span).occupied {
			return false
		}
	}
	return true
}
