package core

import (
	"encoding/binary"
	"fmt"

	"chime/internal/dmsim"
	"chime/internal/obs"
)

// Pipelined multi-get (async verb pipelining). SearchBatch drives up to
// `depth` point lookups through the tree at once on ONE client: each key
// is a small state machine whose remote reads are posted verbs, so the
// round trips of different keys overlap on the virtual clock exactly as
// coroutine-multiplexed lookups overlap on a real NIC (the CHIME
// artifact runs several coroutines per CPU thread for this reason).
//
// Scheduling is FIFO round-robin: the op whose read was posted earliest
// is polled first (its completion is the oldest, so polling it advances
// the clock the least), then it posts its next read and goes to the back
// of the queue. Cache hits advance an op several levels without posting
// anything. Optimistic-retry failures (torn reads, stale caches,
// half-splits) are isolated per key: one key restarting its traversal
// never unwinds its neighbors.
//
// Hotness-aware speculation (§4.3) is deliberately skipped in batch
// mode: a speculative single-entry read saves bytes but serializes an
// extra dependent round trip per key, which is exactly what pipelining
// is trying to hide. Found entries are still *recorded* in the hotspot
// buffer so interleaved synchronous Searches keep their speculation.

// searchOp states.
const (
	opStart = iota
	opRootWait
	opInternalWait
	opLeafWait
	opIndirectWait
	opDone
)

// searchOp is one in-flight key of a SearchBatch.
type searchOp struct {
	key uint64
	idx int // position in the input / result slices

	state int

	// Traversal state (mirrors traverse/traverseFrom).
	root      dmsim.GAddr
	rootLevel uint8
	cur       dmsim.GAddr
	path      []pathEntry
	ref       leafRef
	hops      int

	// In-flight reads. h2 is the dedicated metadata READ when the
	// ReplicateMeta ablation is off.
	h, h2   *dmsim.Completion
	rootBuf [8]byte
	node    *internalImage // internal node being fetched (client free list)
	im      *leafImage     // leaf window image (pooled)
	metaG   int
	ranges  []byteRange  // fetched leaf ranges, backed by segBuf
	segBuf  [3]byteRange // two window segments and the ablation's replica
	valBuf  []byte       // indirect KV block ([8B key][value])

	restarts, torn int

	val []byte
	err error
}

// SearchBatch performs up to depth point lookups concurrently on this
// client, returning per-key values and errors (ErrNotFound for absent
// keys). depth <= 1 degenerates to sequential pipelining of one key at
// a time; results are positionally aligned with keys.
func (c *Client) SearchBatch(keys []uint64, depth int) ([][]byte, []error) {
	n := len(keys)
	vals := make([][]byte, n)
	errs := make([]error, n)
	if n == 0 {
		return vals, errs
	}
	if sp := c.obs.Tracer.Begin("chime.search_batch", "idx", c.dc.ID(), c.dc.Now()); sp != nil {
		sp.Arg("keys", n)
		sp.Arg("depth", depth)
		defer func() { sp.End(c.dc.Now()) }()
	}
	if fl := c.dc.Flight(); fl != nil {
		fl.Begin(obs.OpBatchRead, c.dc.Now())
		defer func() { fl.End(c.dc.Now()) }()
	}
	if depth < 1 {
		depth = 1
	}

	// The ops in flight form a FIFO ring of depth slots.
	if cap(c.opRing) < depth {
		c.opRing = make([]*searchOp, depth)
	}
	ring := c.opRing[:depth]
	head, live, next := 0, 0, 0
	finish := func(op *searchOp) {
		vals[op.idx], errs[op.idx] = op.val, op.err
		c.opFree = append(c.opFree, op)
	}
	admit := func() {
		for next < n && live < depth {
			op := c.newSearchOp(keys[next], next)
			next++
			c.beginOp(op)
			if op.state == opDone {
				finish(op)
				continue
			}
			ring[(head+live)%depth] = op
			live++
		}
	}
	admit()
	for live > 0 {
		op := ring[head]
		head = (head + 1) % depth
		live--
		c.stepOp(op)
		if op.state == opDone {
			finish(op)
			admit()
		} else {
			ring[(head+live)%depth] = op
			live++
		}
	}
	return vals, errs
}

// newSearchOp returns a reset op for key, reusing a finished one (and
// its path capacity) when the client has any.
func (c *Client) newSearchOp(key uint64, idx int) *searchOp {
	if n := len(c.opFree); n > 0 {
		op := c.opFree[n-1]
		c.opFree = c.opFree[:n-1]
		*op = searchOp{key: key, idx: idx, path: op.path[:0]}
		return op
	}
	return &searchOp{key: key, idx: idx}
}

// beginOp (re)starts a key's traversal: post the super-block read if the
// root is unknown, otherwise descend through the cache from the root.
func (c *Client) beginOp(op *searchOp) {
	op.path = op.path[:0]
	op.hops = 0
	c.chargeLocalWork()
	if c.rootAddr.IsNil() {
		h, err := c.dc.PostRead(c.ix.super, op.rootBuf[:])
		if err != nil {
			c.failOp(op, err)
			return
		}
		op.h = h
		op.state = opRootWait
		return
	}
	op.root, op.rootLevel = c.rootAddr, c.rootLevel
	c.descendFromRoot(op)
}

// stepOp polls the op's outstanding completion(s) and advances its state
// machine until it either posts again or completes.
func (c *Client) stepOp(op *searchOp) {
	switch op.state {
	case opRootWait:
		c.reap(op.h)
		op.h = nil
		addr, lvl := unpackSuper(binary.LittleEndian.Uint64(op.rootBuf[:]))
		c.rootAddr, c.rootLevel = addr, lvl
		op.root, op.rootLevel = addr, lvl
		c.descendFromRoot(op)

	case opInternalWait:
		c.reap(op.h)
		op.h = nil
		if err := c.ix.inner.checkInternalImage(op.node.buf); err != nil {
			op.torn++
			if op.torn > maxRetries {
				c.failOp(op, fmt.Errorf("core: internal node %v: torn-read retries exhausted", op.cur))
				return
			}
			c.yield()
			h, perr := c.dc.PostRead(op.cur, op.node.buf)
			if perr != nil {
				c.failOp(op, perr)
				return
			}
			op.h = h
			return
		}
		op.node.decodeHeader()
		r := op.node.route(op.key)
		c.keepInternal(op.cur, op.node)
		op.node = nil
		if c.stepNode(op, r, false) {
			c.descendLoop(op)
		}

	case opLeafWait:
		c.reap(op.h)
		c.reap(op.h2)
		op.h, op.h2 = nil, nil
		c.finishLeafOp(op)

	case opIndirectWait:
		c.reap(op.h)
		op.h = nil
		if binary.LittleEndian.Uint64(op.valBuf[:8]) != op.key {
			c.restartOp(op)
			return
		}
		op.val = op.valBuf[8:]
		c.completeOp(op)

	default:
		c.failOp(op, fmt.Errorf("core: SearchBatch: step in state %d", op.state))
	}
}

func (c *Client) descendFromRoot(op *searchOp) {
	if op.rootLevel == 0 {
		op.ref = leafRef{addr: op.root}
		c.postLeafOp(op)
		return
	}
	op.cur = op.root
	c.descendLoop(op)
}

// descendLoop walks internal levels through the cache until it needs a
// remote read (posting it) or reaches level 1 (posting the leaf window).
func (c *Client) descendLoop(op *searchOp) {
	for ; op.hops < maxRetries; op.hops++ {
		n := c.cn.cache.get(op.cur)
		if n == nil {
			op.node = c.getInternal()
			h, err := c.dc.PostRead(op.cur, op.node.buf)
			if err != nil {
				c.failOp(op, err)
				return
			}
			op.h = h
			op.state = opInternalWait
			return
		}
		if !c.stepNode(op, n.route(op.key), true) {
			return
		}
	}
	c.failOp(op, fmt.Errorf("core: SearchBatch(%#x): descent loop exhausted", op.key))
}

// stepNode applies one internal node's routing verdict to the op's
// descent (the body of traverseFrom's loop). It reports whether the
// caller should keep descending locally; false means the op posted a
// read, restarted, or failed.
func (c *Client) stepNode(op *searchOp, r route, fromCache bool) bool {
	if r.kind != routeDown {
		if fromCache {
			// Stale cached node: drop it and retry this address remotely.
			c.cn.cache.invalidate(op.cur)
			return true
		}
		if r.kind == routeRight {
			op.cur = r.child // half-split: chase the B-link sibling
			return true
		}
		c.restartOp(op)
		return false
	}
	op.path = append(op.path, pathEntry{addr: op.cur, level: r.level})
	if r.level == 1 {
		op.ref = leafRef{
			addr:            r.child,
			expected:        r.next,
			expectedKnown:   !r.next.IsNil(),
			parentAddr:      op.cur,
			parentFromCache: fromCache,
			path:            op.path,
		}
		c.postLeafOp(op)
		return false
	}
	op.cur = r.child
	return true
}

// postLeafOp posts the leaf neighborhood window read(s) for op.ref,
// mirroring fetchLeafWindow's geometry. When the metadata replica is not
// covered (the "+Leaf Meta" ablation), the dedicated replica READ is
// posted alongside rather than after — both complete before the window
// is decoded, so validation is unchanged, but the two round trips
// overlap.
func (c *Client) postLeafOp(op *searchOp) {
	lay := c.ix.leaf
	home := lay.homeOf(op.key)
	if op.im == nil {
		op.im = lay.getImage()
	}
	segs := lay.neighborhoodSegments(op.segBuf[:0], home, lay.h, c.ix.opts.ReplicateMeta)
	op.ranges = segs
	op.metaG = lay.metaInRanges(segs)

	var err error
	if len(segs) == 1 {
		op.h, err = c.dc.PostRead(op.ref.addr.Add(uint64(segs[0].Off)), op.im.buf[segs[0].Off:segs[0].End])
	} else {
		op.h, err = c.postWindowBatch(op.ref.addr, op.im, segs)
	}
	if err != nil {
		c.failOp(op, err)
		return
	}
	if !c.ix.opts.ReplicateMeta || op.metaG < 0 {
		rc := lay.replicaCells[0]
		op.h2, err = c.dc.PostRead(op.ref.addr.Add(uint64(rc.Off)), op.im.buf[rc.Off:rc.End()])
		if err != nil {
			c.failOp(op, err)
			return
		}
		op.metaG = 0
		op.ranges = append(op.ranges, byteRange{Off: rc.Off, End: rc.End()})
	}
	op.state = opLeafWait
}

// finishLeafOp validates and decodes a completed leaf window, exactly as
// searchLeafChain does for the synchronous path.
func (c *Client) finishLeafOp(op *searchOp) {
	lay := c.ix.leaf
	if err := op.im.checkRanges(op.ranges); err != nil {
		op.torn++
		if op.torn > maxRetries {
			c.failOp(op, fmt.Errorf("core: leaf %v: torn-read retries exhausted", op.ref.addr))
			return
		}
		c.yield()
		c.postLeafOp(op) // repost the same window into the same image
		return
	}
	c.resetBackoff()

	foundIdx, foundVal, consistent := op.im.probe(lay.homeOf(op.key), op.key)
	if !consistent {
		c.restartOp(op) // concurrent hop-range write caught mid-flight
		return
	}
	meta := op.im.meta(op.metaG)
	follow, err := c.validateLeafMeta(&op.ref, meta, op.key, foundIdx >= 0)
	if err != nil {
		c.restartOp(op)
		return
	}
	if foundIdx >= 0 {
		// foundVal aliases the image, and hotspot.record can let another
		// client run and draw it from the pool: detach first, recycle
		// after.
		val, ptr := c.detachValue(foundVal)
		lay.putImage(op.im)
		op.im = nil
		c.cn.hotspot.record(op.ref.addr, foundIdx, op.key)
		if c.ix.opts.Indirect {
			if ptr.IsNil() {
				c.restartOp(op)
				return
			}
			op.valBuf = make([]byte, 8+c.ix.opts.ValueSize)
			h, perr := c.dc.PostRead(ptr, op.valBuf)
			if perr != nil {
				c.failOp(op, perr)
				return
			}
			op.h = h
			op.state = opIndirectWait
			return
		}
		op.val = val
		c.completeOp(op)
		return
	}
	if follow {
		op.ref = leafRef{addr: meta.sibling}
		c.postLeafOp(op)
		return
	}
	op.err = ErrNotFound
	c.completeOp(op)
}

// restartOp retraverses one key after an optimistic conflict; other keys
// in the batch are untouched.
func (c *Client) restartOp(op *searchOp) {
	op.restarts++
	c.obs.Retries.Inc()
	if op.restarts > maxRetries {
		c.failOp(op, fmt.Errorf("core: SearchBatch(%#x): retries exhausted", op.key))
		return
	}
	c.releaseOpBuffers(op)
	c.rootAddr = dmsim.NilGAddr // a split root invalidates it
	c.yield()
	c.beginOp(op)
}

func (c *Client) completeOp(op *searchOp) {
	c.resetBackoff()
	c.releaseOpBuffers(op)
	op.state = opDone
}

func (c *Client) failOp(op *searchOp, err error) {
	op.err = err
	c.releaseOpBuffers(op)
	op.state = opDone
}

// releaseOpBuffers drains any in-flight completions (reap is nil-safe)
// and returns pooled images.
func (c *Client) releaseOpBuffers(op *searchOp) {
	c.reap(op.h)
	c.reap(op.h2)
	op.h, op.h2 = nil, nil
	if op.node != nil {
		c.putInternal(op.node)
		op.node = nil
	}
	if op.im != nil {
		c.ix.leaf.putImage(op.im)
		op.im = nil
	}
}
