package core

import (
	"encoding/binary"
	"fmt"

	"chime/internal/dmsim"
)

// descent is the one root→leaf walk of the tree: internal nodes from the
// CN cache first, a posted READ on a miss, B-link chases across
// half-split internal nodes. It is a state machine over posted verbs, so
// the same code serves a key multiplexed with others (searchOp, writeOp
// embed one each) and a caller that wants the leaf now (Client.descend
// steps the client's own instance to completion — a synchronous verb is
// a post and an immediate poll, so stepping at depth 1 is the
// synchronous descent).
type descent struct {
	key  uint64
	cur  dmsim.GAddr // internal node being routed on or fetched
	path []pathEntry // internal nodes routed through, root first
	ref  leafRef     // the leaf, once step reports descArrived

	// via is the copy of path's last node that routed the walk on: the
	// one a B-link chase below it drops from the cache (dropParent). It
	// may have been recycled since; it is only compared, never read.
	via *internalImage

	hops, torn int

	// The read in flight: the super block while node is nil, else the
	// internal node at cur into node (from the client's free list).
	h       *dmsim.Completion
	rootBuf [8]byte
	node    *internalImage

	err error // set when step reports descFailed
}

// descentStatus is what begin and step report.
type descentStatus uint8

const (
	descPosted  descentStatus = iota // a read is in flight: step again
	descArrived                      // ref is the leaf covering key
	descRestart                      // the tree changed under the walk: noteRestart, then begin again
	descFailed                       // err says why
)

// begin (re)starts the walk for key from the root. The path of the
// previous walk is overwritten: a leafRef must not outlive the next
// begin on the descent it came from (tests scribble the old path to
// catch one that does).
func (d *descent) begin(c *Client, key uint64) descentStatus {
	if poisonRecycled {
		old := d.path[:cap(d.path)]
		for i := range old {
			old[i] = pathEntry{addr: dmsim.UnpackGAddr(^uint64(0)), level: poisonByte}
		}
	}
	d.key, d.path, d.via, d.hops, d.torn = key, d.path[:0], nil, 0, 0
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
	if d.node == nil {
		c.rootAddr, c.rootLevel = unpackSuper(binary.LittleEndian.Uint64(d.rootBuf[:]))
		return d.fromRoot(c)
	}
	if err := c.ix.inner.checkInternalImage(d.node.buf); err != nil {
		c.obs.TornReads.Inc()
		if d.torn++; d.torn > maxRetries {
			return d.fail(c, fmt.Errorf("core: internal node %v: torn-read retries exhausted", d.cur))
		}
		c.backoff.Yield(c.dc)
		return d.postNode(c)
	}
	c.backoff.Reset()
	d.node.decodeHeader()
	n, r := d.node, d.node.route(d.key)
	c.keepInternal(d.cur, d.node)
	d.node = nil
	if st, walkOn := d.apply(c, n, r, false); !walkOn {
		return st
	}
	return d.walk(c)
}

func (d *descent) fromRoot(c *Client) descentStatus {
	if c.rootLevel == 0 {
		return d.arrive(c, leafRef{addr: c.rootAddr}) // the root is a leaf
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
			d.node = c.getInternal()
			return d.postNode(c)
		}
		if st, walkOn := d.apply(c, n, n.route(d.key), true); !walkOn {
			return st
		}
	}
	return d.fail(c, fmt.Errorf("core: descent(%#x): loop exhausted", d.key))
}

func (d *descent) postNode(c *Client) descentStatus {
	h, err := c.dc.PostRead(d.cur, d.node.buf)
	if err != nil {
		return d.fail(c, err)
	}
	d.h = h
	return descPosted
}

// apply takes the routing verdict of internal node n. walkOn says the
// walk continues at d.cur; otherwise the status is final.
func (d *descent) apply(c *Client, n *internalImage, r route, fromCache bool) (st descentStatus, walkOn bool) {
	if r.kind != routeDown {
		if fromCache {
			// Stale cached node: drop it and retry this address remotely.
			c.cn.cache.Drop(d.cur)
			return 0, true
		}
		if r.kind == routeRight {
			c.obs.SiblingChases.Inc()
			d.dropParent(c)
			d.cur = r.child // half-split: chase the B-link sibling
			return 0, true
		}
		return descRestart, false
	}
	d.path, d.via = append(d.path, pathEntry{addr: d.cur, level: r.level}), n
	if r.level > 1 {
		d.cur = r.child
		return 0, true
	}
	return d.arrive(c, leafRef{
		addr:            r.child,
		expected:        r.next,
		expectedKnown:   !r.next.IsNil(),
		parentAddr:      d.cur,
		parentFromCache: fromCache,
	}), false
}

// dropParent drops from the cache the copy of the node the walk routed
// through last: at a B-link chase it routed to a node that no longer
// covers the key, so it predates the split, and kept it would send every
// later op on the same chase — when another compute node split the node.
// A split of this CN updates the parent in the cache itself, so while one
// is in flight nothing is dropped, and a fresher copy put since stays.
func (d *descent) dropParent(c *Client) {
	if n := len(d.path); n > 0 && c.cn.splits.Load() == 0 {
		c.cn.cache.DropCopy(d.path[n-1].addr, d.via)
	}
}

func (d *descent) arrive(c *Client, ref leafRef) descentStatus {
	c.backoff.Reset()
	d.ref = ref
	return descArrived
}

func (d *descent) fail(c *Client, err error) descentStatus {
	d.release(c)
	d.err = err
	return descFailed
}

// release drains the read in flight and recycles its image; the owner
// calls it before abandoning a walk.
func (d *descent) release(c *Client) {
	c.reap(d.h)
	d.h = nil
	if d.node != nil {
		c.putInternal(d.node)
		d.node = nil
	}
}

// noteRestart is the bookkeeping every optimistic restart shares: count
// it, forget the root pointer (a split root is what went stale when the
// root was a leaf) and back off.
func (c *Client) noteRestart() {
	c.obs.Retries.Inc()
	c.rootAddr = dmsim.NilGAddr
	c.backoff.Yield(c.dc)
}

// descend steps the client's own descent to the leaf covering key. The
// returned ref's path aliases that descent: it is good until the next
// descend on this client.
func (c *Client) descend(key uint64) (leafRef, error) {
	d := &c.desc
	for attempt := 0; attempt < maxRetries; attempt++ {
		st := d.begin(c, key)
		for st == descPosted {
			st = d.step(c)
		}
		switch st {
		case descArrived:
			return d.ref, nil
		case descFailed:
			return leafRef{}, d.err
		}
		c.noteRestart()
	}
	return leafRef{}, fmt.Errorf("core: descend(%#x): restart loop exhausted", key)
}
