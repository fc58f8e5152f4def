package core

import (
	"encoding/binary"
	"fmt"

	"chime/internal/dmsim"
	"chime/internal/offroute"
)

// KV is one result of a range scan.
type KV = offroute.KV

// scanOneSided returns up to count items with keys >= start, in
// ascending key order (§4.4), using one-sided verbs only; the public
// Scan (offload.go) routes between this and the MN-side offload
// program. Leaves along the range are fetched whole (their entries
// are hash-ordered, not key-ordered) and the sibling chain is followed;
// each leaf costs one round trip, as in Table 1. The chain is pipelined
// with posted verbs: the next sibling's read is posted as soon as the
// current leaf's metadata is decoded, overlapping it with the current
// leaf's indirect-value reads (which are themselves posted as a group).
func (c *Client) scanOneSided(start uint64, count int) ([]KV, error) {
	for attempt := 0; attempt < maxRetries; attempt++ {
		out, err := c.scanOnce(start, count)
		if err == errRestart {
			c.noteRestart()
			continue
		}
		return out, err
	}
	return nil, fmt.Errorf("core: Scan(%#x): retries exhausted", start)
}

func (c *Client) scanOnce(start uint64, count int) ([]KV, error) {
	ref, err := c.descend(start)
	if err != nil {
		return nil, err
	}
	var pre leafPrefetch
	out, err := c.scanChain(ref.addr, start, count, &pre)
	// A prefetch can be outstanding on every exit path (errors, early
	// count satisfaction); drain it so in-flight accounting stays balanced
	// and its image returns to the pool.
	pre.abandon(c)
	return out, err
}

// scanChain walks the leaf chain from addr, appending each leaf's
// in-range entries in key order until count are collected or the chain
// ends. pre is the caller's prefetch slot; whatever it still holds on
// return is the caller's to abandon.
func (c *Client) scanChain(addr dmsim.GAddr, start uint64, count int, pre *leafPrefetch) ([]KV, error) {
	lay := c.ix.leaf
	valSize := lay.valSize
	if c.ix.opts.Indirect {
		valSize = c.ix.opts.ValueSize
	}
	sb := offroute.NewScanBuf(count, valSize)
	for leaves := 0; leaves <= maxRetries; leaves++ {
		var im *leafImage
		var meta leafMeta
		var err error
		if pre.posted {
			im, meta, err = c.finishLeafPrefetch(pre)
		} else {
			im, meta, err = c.readLeafForScan(addr)
		}
		if err != nil {
			return nil, err
		}
		if !meta.valid {
			lay.putImage(im)
			return nil, errRestart
		}

		// Post the sibling's whole-node read before resolving this
		// leaf's values: its round trip proceeds while the indirect
		// block reads below are in flight.
		if !meta.sibling.IsNil() && len(sb.Out) < count {
			*pre = c.postLeafRead(meta.sibling)
		}
		addr = meta.sibling

		err = c.collectLeafBatch(im, start, count, &sb)
		lay.putImage(im)
		if err != nil {
			return nil, err
		}
		if len(sb.Out) >= count || addr.IsNil() {
			return sb.Out, nil
		}
	}
	return nil, fmt.Errorf("core: Scan(%#x): sibling chain too long", start)
}

// collectLeafBatch appends the in-range entries of a validated leaf
// image to sb.Out in key order, stopping at count results. Values are
// copied into the scan's arena (or fetched from their blocks and
// copied), so the image can be recycled as soon as this returns.
// Indirect block reads are posted as a group — for every in-range entry,
// in slot order, wanted or not, which is what the modelled client does —
// so their round trips overlap each other and any sibling prefetch
// already in flight.
func (c *Client) collectLeafBatch(im *leafImage, start uint64, count int, sb *offroute.ScanBuf) error {
	lay := c.ix.leaf
	if c.scanSlots == nil {
		c.scanSlots = make([]offroute.ScanSlot, 0, lay.span)
	}
	slots := c.scanSlots[:0]
	if !c.ix.opts.Indirect {
		for _, s := range offroute.SortedPrefix(im.inRange(slots, start), count-len(sb.Out)) {
			sb.Add(s.Key, im.entry(s.Idx).value)
		}
		return nil
	}

	blockSize := 8 + c.ix.opts.ValueSize
	if c.scanBlocks == nil {
		c.scanBlocks = make([]byte, lay.span*blockSize)
		c.scanPends = make([]*dmsim.Completion, 0, lay.span)
	}
	block := func(n int) []byte { return c.scanBlocks[n*blockSize : (n+1)*blockSize] }
	pends := c.scanPends[:0]
	var firstErr error
	for i := 0; i < lay.span; i++ {
		e := im.entry(i)
		if !e.occupied || e.key < start {
			continue
		}
		ptr := ptrOf(e.value)
		if ptr.IsNil() {
			firstErr = errRestart
			break
		}
		h, err := c.dc.PostRead(ptr, block(len(pends)))
		if err != nil {
			firstErr = err
			break
		}
		slots = append(slots, offroute.ScanSlot{Key: e.key, Idx: len(pends)})
		pends = append(pends, h)
	}
	for n, h := range pends {
		c.dc.Poll(h)
		if firstErr == nil && binary.LittleEndian.Uint64(block(n)[:8]) != slots[n].Key {
			firstErr = errRestart
		}
	}
	if firstErr != nil {
		return firstErr
	}
	for _, s := range offroute.SortedPrefix(slots, count-len(sb.Out)) {
		sb.Add(s.Key, block(s.Idx)[8:])
	}
	return nil
}

// inRange appends the leaf's occupied slots with keys >= start to dst, in
// slot order.
func (im *leafImage) inRange(dst []offroute.ScanSlot, start uint64) []offroute.ScanSlot {
	for i := 0; i < im.lay.span; i++ {
		if occupied, _, key := im.slot(i); occupied && key >= start {
			dst = append(dst, offroute.ScanSlot{Key: key, Idx: i})
		}
	}
	return dst
}

// leafPrefetch is a posted whole-leaf read in flight (posted is false
// for the empty slot). im is nil when the post itself failed: the
// synchronous path then re-reads addr and re-reports the error.
type leafPrefetch struct {
	posted bool
	addr   dmsim.GAddr
	im     *leafImage
	h      *dmsim.Completion
}

// postLeafRead posts the whole-node read of a sibling leaf. Post errors
// (range violations) are deferred: finishLeafPrefetch falls back to the
// synchronous path, which re-reports them.
func (c *Client) postLeafRead(addr dmsim.GAddr) leafPrefetch {
	lay := c.ix.leaf
	im := lay.getImage()
	clear(im.buf[:lineSize])
	h, err := c.dc.PostRead(addr.Add(lineSize), im.buf[lineSize:])
	if err != nil {
		lay.putImage(im)
		return leafPrefetch{posted: true, addr: addr}
	}
	return leafPrefetch{posted: true, addr: addr, im: im, h: h}
}

// finishLeafPrefetch empties the slot: it polls the posted leaf read and
// validates it exactly as readLeafForScan does (version bytes plus
// hopscotch-bitmap reconstruction); any validation failure falls back to
// the synchronous retry loop.
func (c *Client) finishLeafPrefetch(p *leafPrefetch) (*leafImage, leafMeta, error) {
	lay := c.ix.leaf
	addr, im, h := p.addr, p.im, p.h
	*p = leafPrefetch{}
	if im == nil {
		return c.readLeafForScan(addr)
	}
	c.dc.Poll(h)
	if checkVersions(im.buf, 0, lay.allCells) == nil && im.hopBitmapsConsistent() {
		return im, im.meta(0), nil
	}
	lay.putImage(im)
	c.backoff.Yield(c.dc)
	return c.readLeafForScan(addr)
}

// abandon drains a prefetch that will not be consumed. The poll charges
// the client the verb's completion time — strictly conservative (a
// wasted prefetch can only slow the scan down, never speed it up).
func (p *leafPrefetch) abandon(c *Client) {
	if p.im != nil {
		c.dc.Poll(p.h)
		c.ix.leaf.putImage(p.im)
	}
}

// readLeafForScan fetches a whole leaf with full three-level
// validation: version bytes, plus hopscotch-bitmap reconstruction for
// every home entry so a mid-flight hop-range write cannot hide a key.
func (c *Client) readLeafForScan(addr dmsim.GAddr) (*leafImage, leafMeta, error) {
	lay := c.ix.leaf
	for try := 0; try < maxRetries; try++ {
		im, _, metaG, err := c.fetchWholeLeaf(addr)
		if err != nil {
			return nil, leafMeta{}, err
		}
		if !im.hopBitmapsConsistent() {
			lay.putImage(im)
			c.backoff.Yield(c.dc)
			continue
		}
		return im, im.meta(metaG), nil
	}
	return nil, leafMeta{}, fmt.Errorf("core: scan leaf %v: retries exhausted", addr)
}
