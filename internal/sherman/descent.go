package sherman

import (
	"encoding/binary"
	"fmt"

	"chime/internal/dmsim"
)

// descent is the one root→leaf walk of the tree: internal nodes from the
// CN cache first, a posted whole-node READ on a miss, B-link chases
// across half-split internal nodes. It is a state machine over posted
// verbs, so the same code serves a key multiplexed with others (batchOp
// and wOp embed one each) and a caller that wants the leaf now
// (Client.descend steps the client's own instance to completion — a
// synchronous verb is a post and an immediate poll, so stepping at depth
// 1 is the synchronous descent).
type descent struct {
	key  uint64
	cur  dmsim.GAddr // internal node being routed on or fetched
	path []pathEntry // internal nodes routed through, root first
	leaf dmsim.GAddr // the leaf, once step reports descArrived

	// parent is the node the walk routed on last: once it arrives, the
	// level-1 node that routed it to leaf (nil when the root is a leaf). A
	// decoded node is never written once a descent routes on it or the
	// cache holds it, so a scan may read its child list for as long as it
	// likes.
	parent *node

	hops, torn int

	// The read in flight: the super block, or (fetching) the internal
	// node at cur into img, which the descent keeps for its next fetch.
	h        *dmsim.Completion
	rootBuf  [8]byte
	img      *image
	fetching bool

	err error // set when step reports descFailed
}

// descentStatus is what begin and step report.
type descentStatus uint8

const (
	descPosted  descentStatus = iota // a read is in flight: step again
	descArrived                      // leaf covers key (by its parent's word)
	descRestart                      // the tree changed under the walk: noteRestart, then begin again
	descFailed                       // err says why
)

// begin (re)starts the walk for key from the root. The path of the
// previous walk is overwritten: it must not outlive the next begin on
// the descent it came from (under poisonRecycled it is scribbled over,
// so a path used past that point names no plausible parent).
func (d *descent) begin(c *Client, key uint64) descentStatus {
	if poisonRecycled {
		old := d.path[:cap(d.path)]
		for i := range old {
			old[i] = pathEntry{addr: dmsim.UnpackGAddr(^uint64(0)), level: 0xA5}
		}
	}
	d.key, d.path, d.hops, d.torn = key, d.path[:0], 0, 0
	c.chargeLocalWork()
	if c.rootAddr.IsNil() {
		h, err := c.dc.PostRead(c.ix.super, d.rootBuf[:])
		if err != nil {
			return d.fail(c, err)
		}
		d.h = h
		return descPosted
	}
	return d.fromRoot(c)
}

// step polls the read in flight and walks on until the next one is
// posted or the walk ends.
func (d *descent) step(c *Client) descentStatus {
	c.reap(d.h)
	d.h = nil
	if !d.fetching {
		c.rootAddr, c.rootLevel = unpackSuper(binary.LittleEndian.Uint64(d.rootBuf[:]))
		return d.fromRoot(c)
	}
	d.fetching = false
	if err := d.img.check(); err != nil {
		c.obs.TornReads.Inc()
		if d.torn++; d.torn > maxRetries {
			return d.fail(c, fmt.Errorf("sherman: node %v: torn-read retries exhausted", d.cur))
		}
		c.ys.Yield(c.dc)
		return d.postNode(c)
	}
	c.ys.Reset()
	hdr := d.img.header()
	if !hdr.valid {
		return descRestart
	}
	n := decodeInternal(d.cur, d.img, hdr)
	c.cn.cache.Put(d.cur, n, int64(c.ix.inner.size))
	if st, walkOn := d.apply(c, n, false); !walkOn {
		return st
	}
	return d.walk(c)
}

func (d *descent) fromRoot(c *Client) descentStatus {
	if c.rootLevel == 0 {
		d.leaf, d.parent = c.rootAddr, nil // the root is a leaf
		return descArrived
	}
	d.cur = c.rootAddr
	return d.walk(c)
}

// walk routes through cached nodes until one is missing (its read is
// posted) or the walk ends.
func (d *descent) walk(c *Client) descentStatus {
	for ; d.hops < maxRetries; d.hops++ {
		n := c.cn.cache.Get(d.cur)
		if n == nil {
			return d.postNode(c)
		}
		if st, walkOn := d.apply(c, n, true); !walkOn {
			return st
		}
	}
	return d.fail(c, fmt.Errorf("sherman: descent(%#x): loop exhausted", d.key))
}

func (d *descent) postNode(c *Client) descentStatus {
	d.img = c.ix.inner.recycle(d.img)
	h, err := c.dc.PostRead(d.cur.Add(lineSize), d.img.body())
	if err != nil {
		return d.fail(c, err)
	}
	d.h, d.fetching = h, true
	return descPosted
}

// apply routes on one internal node. walkOn says the walk continues at
// d.cur; otherwise the status is final.
func (d *descent) apply(c *Client, n *node, fromCache bool) (st descentStatus, walkOn bool) {
	key := d.key
	if !n.covers(key) {
		if fromCache {
			c.cn.cache.Drop(d.cur) // stale: retry this address remotely
			return 0, true
		}
		if !n.hdr.fenceInf && key >= n.hdr.fenceHi && !n.hdr.sibling.IsNil() {
			c.obs.SiblingChases.Inc()
			if len(d.path) > 0 {
				c.dropParent(d.parent)
			}
			d.cur = n.hdr.sibling // half-split: chase the B-link sibling
			return 0, true
		}
		return descRestart, false
	}
	d.path, d.parent = append(d.path, pathEntry{addr: d.cur, level: n.hdr.level}), n
	child := n.childFor(key)
	if child.IsNil() {
		if fromCache {
			c.cn.cache.Drop(d.cur)
			return 0, true
		}
		return descRestart, false
	}
	if n.hdr.level == 1 {
		d.leaf = child
		return descArrived, false
	}
	d.cur = child
	return 0, true
}

func (d *descent) fail(c *Client, err error) descentStatus {
	d.release(c)
	d.err = err
	return descFailed
}

// release drains the read in flight; the owner calls it before
// abandoning a walk.
func (d *descent) release(c *Client) {
	c.reap(d.h)
	d.h, d.fetching = nil, false
}

// dropParent drops from the cache the copy of the node a walk routed
// through last: at a B-link chase it routed to a node that no longer
// covers the key, so it predates the split, and kept it would send every
// later op on the same chase — when another compute node split the node.
// A split of this CN updates the parent in the cache itself, so while one
// is in flight nothing is dropped, and a fresher copy put since stays.
func (c *Client) dropParent(parent *node) {
	if parent != nil && c.cn.splits.Load() == 0 {
		c.cn.cache.DropCopy(parent.addr, parent)
	}
}

// reap polls a posted verb and recycles its handle; the caller drops
// its reference.
func (c *Client) reap(h *dmsim.Completion) {
	c.dc.Poll(h)
	c.dc.Release(h)
}

// noteRestart is the bookkeeping every optimistic restart shares: count
// it, forget the root pointer (a split root is what went stale when the
// root was a leaf) and back off.
func (c *Client) noteRestart() {
	c.obs.Retries.Inc()
	c.rootAddr = dmsim.NilGAddr
	c.ys.Yield(c.dc)
}

// descend steps the client's own descent to the leaf covering key. The
// returned path aliases that descent: it is good until the next descend
// on this client.
func (c *Client) descend(key uint64) (dmsim.GAddr, []pathEntry, error) {
	d := &c.desc
	for attempt := 0; attempt < maxRetries; attempt++ {
		st := d.begin(c, key)
		for st == descPosted {
			st = d.step(c)
		}
		switch st {
		case descArrived:
			return d.leaf, d.path, nil
		case descFailed:
			return dmsim.NilGAddr, nil, d.err
		}
		c.noteRestart()
	}
	return dmsim.NilGAddr, nil, fmt.Errorf("sherman: descend(%#x): restart loop exhausted", key)
}
