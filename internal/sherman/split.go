package sherman

import (
	"fmt"

	"chime/internal/dmsim"
	"chime/internal/nodelayout"
)

// Up-propagation after a split, following the same Step 1–3 protocol as
// CHIME (which inherits it from Sherman, §4.4 of the CHIME paper).

func (c *Client) propagate(path []pathEntry, childLevel uint8, splitKey uint64, rightAddr dmsim.GAddr) error {
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
			if err := c.refreshRoot(); err != nil {
				return err
			}
			if c.rootLevel == childLevel {
				done, err := c.growRoot(childLevel, splitKey, rightAddr)
				if err != nil {
					return err
				}
				if done {
					return nil
				}
				continue
			}
			addr, err := c.findParentAt(parentLevel, splitKey)
			if err != nil {
				return err
			}
			parentAddr = addr
		}
		done, err := c.insertIntoParent(parentAddr, parentLevel, splitKey, rightAddr, path)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		parentAddr = dmsim.NilGAddr
		c.ys.Yield(c.dc)
	}
	return fmt.Errorf("sherman: propagate(%#x) exhausted", splitKey)
}

func (c *Client) growRoot(oldLevel uint8, splitKey uint64, rightAddr dmsim.GAddr) (bool, error) {
	oldRoot, curLevel := c.rootAddr, c.rootLevel
	if curLevel != oldLevel {
		return false, nil
	}
	newRoot, err := c.dc.AllocRPC(0, c.ix.inner.size)
	if err != nil {
		return false, err
	}
	root := c.buildImage(c.ix.inner)
	root.setHeader(header{
		valid: true, fenceInf: true, level: oldLevel + 1, nkeys: 1,
		leftmost: oldRoot,
	})
	root.setChild(0, splitKey, rightAddr)
	if err := c.dc.Write(newRoot, root.buf); err != nil {
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

// encodeInternalNode serializes a decoded internal node into im. For a
// node rewritten under its lock, im is the image it was fetched into —
// slots past its pivots keep their bytes — and nodeWrite bumps NV; a
// fresh node goes into a zeroed build image.
func encodeInternalNode(n *node, im *image, nodeWrite bool) {
	hdr := n.hdr
	hdr.nkeys = len(n.piv)
	im.setHeader(hdr)
	for i := range n.piv {
		im.setChild(i, n.piv[i], n.kids[i])
	}
	if nodeWrite {
		im.bumpNV()
	}
}

func (c *Client) insertIntoParent(addr dmsim.GAddr, level uint8, splitKey uint64, rightAddr dmsim.GAddr, path []pathEntry) (bool, error) {
	prev, havePrev := c.placed.At(level)
	local := !c.ix.opts.LeaseLocks
	for hops := 0; hops <= maxRetries; hops++ {
		if err := c.lock(addr); err != nil {
			return false, err
		}
		im, hdr, err := c.readNode(c.ix.inner, addr)
		if err != nil {
			c.unlock(addr, local)
			return false, err
		}
		if !hdr.valid || hdr.level != level {
			c.unlock(addr, local)
			return false, nil
		}
		n := decodeInternal(addr, im, hdr)
		if !n.covers(splitKey) {
			sib := hdr.sibling
			c.unlock(addr, local)
			if !hdr.fenceInf && splitKey >= hdr.fenceHi && !sib.IsNil() {
				addr = sib
				continue
			}
			return false, nil
		}

		// Where the node splits if the entry overflows it: asked of the
		// pivots it holds, before the entry joins them.
		mid, _ := nodelayout.SplitPoint(n.piv, splitKey, prev, havePrev)

		// Sorted insert of the routing entry.
		pos := 0
		for pos < len(n.piv) && n.piv[pos] < splitKey {
			pos++
		}
		n.piv = append(n.piv, 0)
		copy(n.piv[pos+1:], n.piv[pos:])
		n.piv[pos] = splitKey
		n.kids = append(n.kids, dmsim.NilGAddr)
		copy(n.kids[pos+1:], n.kids[pos:])
		n.kids[pos] = rightAddr

		c.placed.Note(level, splitKey)

		if len(n.piv) <= c.ix.inner.span {
			encodeInternalNode(n, im, true)
			if err := c.writeAndUnlock(addr, lineSize, im.body(), local); err != nil {
				return false, err
			}
			c.cn.cache.Put(addr, n, int64(c.ix.inner.size))
			return true, nil
		}

		// Parent overflow: split it; the pivot at the split point moves up.
		midKey := n.piv[mid]
		newAddr, err := c.alloc.Alloc(c.ix.inner.size)
		if err != nil {
			c.unlock(addr, local)
			return false, err
		}
		right := &node{
			addr: newAddr,
			hdr: header{
				valid: true, level: level,
				fenceLow: midKey, fenceHi: hdr.fenceHi, fenceInf: hdr.fenceInf,
				sibling: hdr.sibling,
			},
			piv:  append([]uint64(nil), n.piv[mid+1:]...),
			kids: append([]dmsim.GAddr(nil), n.kids[mid+1:]...),
		}
		right.hdr.leftmost = n.kids[mid]
		rightIm := c.buildImage(c.ix.inner)
		encodeInternalNode(right, rightIm, false)
		if err := c.dc.Write(newAddr, rightIm.buf); err != nil {
			c.unlock(addr, local)
			return false, err
		}
		n.piv = n.piv[:mid]
		n.kids = n.kids[:mid]
		n.hdr.fenceInf = false
		n.hdr.fenceHi = midKey
		n.hdr.sibling = newAddr
		encodeInternalNode(n, im, true)
		if err := c.writeAndUnlock(addr, lineSize, im.body(), local); err != nil {
			return false, err
		}
		c.cn.cache.Put(addr, n, int64(c.ix.inner.size))
		// im is dead here: the recursion reads this level's parent into it.
		if err := c.propagate(path, level, midKey, newAddr); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, fmt.Errorf("sherman: insertIntoParent(%#x) exhausted", splitKey)
}

func (c *Client) findParentAt(level uint8, key uint64) (dmsim.GAddr, error) {
	for attempt := 0; attempt < maxRetries; attempt++ {
		if err := c.refreshRoot(); err != nil {
			return dmsim.NilGAddr, err
		}
		if c.rootLevel < level {
			c.ys.Yield(c.dc)
			continue
		}
		cur := c.rootAddr
		for {
			im, hdr, err := c.readNode(c.ix.inner, cur)
			if err != nil {
				return dmsim.NilGAddr, err
			}
			if !hdr.valid {
				break
			}
			if key < hdr.fenceLow || (!hdr.fenceInf && key >= hdr.fenceHi) {
				if !hdr.fenceInf && key >= hdr.fenceHi && !hdr.sibling.IsNil() {
					cur = hdr.sibling
					continue
				}
				break
			}
			if hdr.level == level {
				return cur, nil
			}
			if hdr.level < level {
				break
			}
			child := im.childFor(hdr, key)
			if child.IsNil() {
				break
			}
			cur = child
		}
		c.ys.Yield(c.dc)
	}
	return dmsim.NilGAddr, fmt.Errorf("sherman: findParentAt(%d, %#x) exhausted", level, key)
}
