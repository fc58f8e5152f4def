package core

import (
	"encoding/binary"
	"fmt"

	"chime/internal/dmsim"
	"chime/internal/offroute"
)

// KV is one result of a range scan.
type KV = offroute.KV

// scanOneSided fills sb with up to count items with keys >= start, in
// ascending key order (§4.4), using one-sided verbs only; the public
// Scan and ScanTo (offload.go) route between this and the MN-side
// offload program. Leaves along the range are fetched whole (their
// entries are hash-ordered, not key-ordered), one posted read each, and a
// leaf is read only if the scan returns entries from it: Table 1's
// 1 + leaves.
// Which leaf is read when is offroute.ScanWindow's rule — the chain's
// next leaf once the scan is known to be short, and ahead of that every
// leaf the cached parent names that the scan is certain to reach, so a
// scan longer than one span overlaps its reads instead of paying a
// round trip per leaf. A leaf's indirect-value reads are posted as a
// group after the reads of the leaves that follow it, and overlap them.
func (c *Client) scanOneSided(sb *offroute.ScanBuf, start uint64, count int) error {
	for attempt := 0; attempt < maxRetries; attempt++ {
		err := c.scanOnce(sb, start, count)
		if err == errRestart {
			c.noteRestart()
			continue
		}
		return err
	}
	return fmt.Errorf("core: Scan(%#x): retries exhausted", start)
}

func (c *Client) scanOnce(sb *offroute.ScanBuf, start uint64, count int) error {
	ref, err := c.descend(start)
	if err != nil {
		return err
	}
	err = c.scanChain(sb, ref, start, count)
	// Reads are still in flight when the walk ends on an error; drain
	// them so in-flight accounting stays balanced and their images return
	// to the pool.
	c.dropLeafReads()
	return err
}

// leafRead is one posted whole-leaf read of a scan. im is nil when the
// post itself failed: finishLeafRead then re-reads the leaf
// synchronously and re-reports the error.
type leafRead struct {
	im *leafImage
	h  *dmsim.Completion
}

// scanNames returns the leaves the scan's window may read ahead of the
// chain: the children the cached level-1 parent lists after the leaf the
// descent reached. There are none when the leaf has no parent (the root
// is a leaf), the parent is not cached, or the cached node no longer
// routes start to that leaf. They are hints the chain validates
// (offroute.ScanWindow), so a stale list costs reads, never results.
func (c *Client) scanNames(ref leafRef, start uint64) []dmsim.GAddr {
	if ref.parentAddr.IsNil() {
		return nil
	}
	n := c.cn.cache.Get(ref.parentAddr)
	if n == nil || !n.valid || !n.covers(start) {
		return nil
	}
	if c.scanAhead == nil {
		c.scanAhead = make([]dmsim.GAddr, 0, c.ix.inner.span)
	}
	child, after := n.childrenAfter(c.scanAhead[:0], start)
	if child != ref.addr {
		return nil
	}
	return after
}

// scanChain walks the leaf chain from the leaf ref names, filling sb
// with each leaf's in-range entries in key order until count are
// collected or the chain ends. Reads it leaves in flight are the caller's
// to drop.
func (c *Client) scanChain(sb *offroute.ScanBuf, ref leafRef, start uint64, count int) error {
	lay := c.ix.leaf
	valSize := lay.valSize
	if c.ix.opts.Indirect {
		valSize = c.ix.opts.ValueSize
	}
	sb.Reset(count, valSize)
	w := &c.scanWin
	w.Reset(lay.span, count, ref.addr, c.scanNames(ref, start))
	c.postLeafReads()
	for leaves := 0; leaves <= maxRetries; leaves++ {
		addr, rd, ok := w.Pop()
		if !ok {
			return nil // count reached, or the chain ended
		}
		im, slots, err := c.finishLeafRead(addr, rd, start)
		if err != nil {
			return err
		}
		err = c.collectLeaf(ref, im, slots, sb)
		lay.putImage(im)
		if err != nil {
			return err
		}
	}
	return fmt.Errorf("core: Scan(%#x): sibling chain too long", start)
}

// postLeafReads posts the whole-node read of every leaf the window says
// the scan needs now. Post errors (range violations) are deferred to
// finishLeafRead.
func (c *Client) postLeafReads() {
	lay, w := c.ix.leaf, &c.scanWin
	for addr, ok := w.Next(); ok; addr, ok = w.Next() {
		im := lay.getImage()
		h, err := c.dc.PostRead(addr.Add(lineSize), im.buf[lineSize:])
		if err != nil {
			lay.putImage(im)
			im = nil
		}
		w.Push(addr, leafRead{im: im, h: h})
	}
}

// dropLeafReads drains the reads in flight that will not be consumed.
// The polls charge the client the verbs' completion times — strictly
// conservative (a wasted read can only slow the scan down, never speed
// it up).
func (c *Client) dropLeafReads() {
	for _, rd, ok := c.scanWin.Pop(); ok; _, rd, ok = c.scanWin.Pop() {
		if rd.im != nil {
			c.reap(rd.h)
			c.ix.leaf.putImage(rd.im)
		}
	}
}

// finishLeafRead polls a posted leaf read and validates it on all three
// levels: version bytes, plus hopscotch-bitmap reconstruction for every
// home entry so a mid-flight hop-range write cannot hide a key. The
// same walk yields the leaf's in-range slots (client scratch, slot
// order). Any validation failure falls back to the synchronous retry
// loop.
func (c *Client) finishLeafRead(addr dmsim.GAddr, rd leafRead, start uint64) (*leafImage, []offroute.ScanSlot, error) {
	lay := c.ix.leaf
	if c.scanSlots == nil {
		c.scanSlots = make([]offroute.ScanSlot, 0, lay.span)
	}
	if rd.im != nil {
		c.reap(rd.h)
		if checkVersions(rd.im.buf, 0, lay.allCells) == nil {
			if slots, ok := rd.im.inRangeIfConsistent(c.scanSlots[:0], start); ok {
				return rd.im, slots, nil
			}
		}
		lay.putImage(rd.im)
		c.backoff.Yield(c.dc)
	}
	return c.readLeafForScan(addr, start)
}

// readLeafForScan is finishLeafRead's retry: synchronous whole-leaf
// reads until one passes the three-level validation.
func (c *Client) readLeafForScan(addr dmsim.GAddr, start uint64) (*leafImage, []offroute.ScanSlot, error) {
	lay := c.ix.leaf
	for try := 0; try < maxRetries; try++ {
		im, _, err := c.fetchWholeLeaf(addr)
		if err != nil {
			return nil, nil, err
		}
		if slots, ok := im.inRangeIfConsistent(c.scanSlots[:0], start); ok {
			return im, slots, nil
		}
		lay.putImage(im)
		c.backoff.Yield(c.dc)
	}
	return nil, nil, fmt.Errorf("core: scan leaf %v: retries exhausted", addr)
}

// collectLeaf takes one arrived, validated leaf of a scan, with its
// in-range slots: it tells the window what the leaf holds and where it
// points, posts the reads the scan now knows it needs, and appends the
// entries the scan wants to sb.Out in key order. Values are copied into
// the scan's arena (or fetched from their blocks and copied), so the
// image can be recycled as soon as this returns. Indirect block reads are
// posted as a group, for the wanted entries only — their keys are in the
// leaf — after the leaf reads, so all those round trips overlap.
func (c *Client) collectLeaf(ref leafRef, im *leafImage, slots []offroute.ScanSlot, sb *offroute.ScanBuf) error {
	meta := im.meta(0)
	if !meta.valid {
		// Merged away: a cached parent that still routes here must go, or
		// the retry meets the same deleted leaf.
		c.invalidateRefParent(ref)
		return errRestart
	}
	want, stale := c.scanWin.Arrive(meta.sibling, len(slots))
	if stale {
		// A leaf split since the parent was cached (§4.2.3): what was
		// read past this leaf is not what follows it.
		c.dropLeafReads()
		c.invalidateRefParent(ref)
	}
	c.postLeafReads()

	slots = offroute.SortedPrefix(slots, want, &c.scanSort)
	if !c.ix.opts.Indirect {
		for _, s := range slots {
			sb.Add(s.Key, im.value(s.Idx))
		}
		return nil
	}

	blockSize := 8 + c.ix.opts.ValueSize
	if c.scanBlocks == nil {
		c.scanBlocks = make([]byte, c.ix.leaf.span*blockSize)
		c.scanPends = make([]*dmsim.Completion, 0, c.ix.leaf.span)
	}
	block := func(n int) []byte { return c.scanBlocks[n*blockSize : (n+1)*blockSize] }
	pends := c.scanPends[:0]
	var firstErr error
	for n, s := range slots {
		ptr := ptrOf(im.value(s.Idx))
		if ptr.IsNil() {
			firstErr = errRestart
			break
		}
		h, err := c.dc.PostRead(ptr, block(n))
		if err != nil {
			firstErr = err
			break
		}
		pends = append(pends, h)
	}
	for n, h := range pends {
		c.reap(h)
		if firstErr == nil && binary.LittleEndian.Uint64(block(n)[:8]) != slots[n].Key {
			firstErr = errRestart
		}
	}
	if firstErr != nil {
		return firstErr
	}
	for n, s := range slots {
		sb.Add(s.Key, block(n)[8:])
	}
	return nil
}
