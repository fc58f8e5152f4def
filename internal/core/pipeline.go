package core

import (
	"encoding/binary"
	"fmt"

	"chime/internal/dmsim"
	"chime/internal/obs"
	"chime/internal/offroute"
)

// The point-read engine. One key is a small state machine (searchOp)
// whose remote reads are posted verbs: the descent (descent.go), an
// optional speculative single-entry read (§4.3), the hopscotch
// neighborhood window with sibling validation (§4.2.3), and the KV block
// of an indirect entry (§4.5).
//
// Search steps one op to completion: every step polls the verb the last
// one posted, which is exactly a synchronous verb. SearchBatch drives up
// to `depth` ops at once on ONE client, so the round trips of different
// keys overlap on the virtual clock exactly as coroutine-multiplexed
// lookups overlap on a real NIC (the CHIME artifact runs several
// coroutines per CPU thread for this reason). Scheduling is FIFO
// round-robin: the op whose read was posted earliest is polled first
// (its completion is the oldest, so polling it advances the clock the
// least), then it posts its next read and goes to the back of the queue.
// Cache hits advance an op several levels without posting anything.
// Optimistic-retry failures (torn reads, stale caches, half-splits) are
// isolated per key: one key restarting its traversal never unwinds its
// neighbors.
//
// Hotness-aware speculation is a state only a Search-started op enters.
// It is deliberately skipped in batch mode: a speculative single-entry
// read saves bytes but serializes an extra dependent round trip per key,
// which is exactly what pipelining is trying to hide. Found entries are
// still *recorded* in the hotspot buffer so interleaved Searches keep
// their speculation.

// searchOp states: what the op's in-flight read is.
const (
	opDescend      = iota // the descent's super-block or internal-node read
	opSpecWait            // the speculated hot entry's cell
	opLeafWait            // the leaf window, then (needMeta) the dedicated replica
	opIndirectWait        // the KV block of an indirect entry
	opDone
)

// searchOp is one point lookup in flight.
type searchOp struct {
	key uint64
	idx int // position in the input / result slices

	state int
	d     descent // root→leaf; d.ref is the leaf being read from then on

	// spec marks an op started by Search: it tries the hotspot buffer's
	// entry before each leaf window. speculating is set while that read
	// (or the block read it led to) is in flight; specIdx is its slot.
	spec, speculating bool
	specIdx           int

	h        *dmsim.Completion
	im       *leafImage   // leaf window image (pooled)
	metaG    int          // replica group the window's metadata comes from
	needMeta bool         // the dedicated replica READ is still to be issued
	ranges   []byteRange  // fetched leaf ranges, backed by segBuf
	segBuf   [3]byteRange // two window segments and the ablation's replica
	valBuf   []byte       // indirect KV block ([8B key][value])

	restarts, torn int

	val []byte
	err error
}

// reset readies the op for a new key, keeping its path capacity.
func (op *searchOp) reset(key uint64, idx int, spec bool) {
	*op = searchOp{key: key, idx: idx, spec: spec, d: descent{path: op.d.path[:0]}}
}

// searchOneSided performs a point query with one-sided verbs only: the
// client's own op, stepped until done. The public Search (offload.go)
// routes between this and the MN-side offload program.
func (c *Client) searchOneSided(key uint64) ([]byte, error) {
	op := &c.sop
	op.reset(key, 0, true)
	for c.beginOp(op); op.state != opDone; {
		c.stepOp(op)
	}
	return op.val, op.err
}

// SearchBatch performs up to depth point lookups concurrently on this
// client, returning per-key values and errors (ErrNotFound for absent
// keys). depth <= 1 degenerates to sequential pipelining of one key at
// a time; results are positionally aligned with keys.
func (c *Client) SearchBatch(keys []uint64, depth int) ([][]byte, []error) {
	b := &c.sb
	b.c, b.keys, b.vals = c, keys, make([][]byte, len(keys))
	errs := b.ring.Run(&c.port, ".search_batch", obs.OpBatchRead, len(keys), depth, b)
	vals := b.vals
	b.keys, b.vals = nil, nil
	return vals, errs
}

// searchBatch runs SearchBatch's ops on the ring, reusing finished ones
// (and their path capacity) from batch to batch.
type searchBatch struct {
	c      *Client
	ring   offroute.Ring[*searchOp]
	keys   []uint64
	vals   [][]byte
	opFree offroute.Free[searchOp]
}

func (b *searchBatch) Start(i int) *searchOp {
	op := b.opFree.Get()
	op.reset(b.keys[i], i, false)
	b.c.beginOp(op)
	return op
}

func (b *searchBatch) Step(op *searchOp) { b.c.stepOp(op) }

func (b *searchBatch) State(op *searchOp) offroute.OpState {
	if op.state == opDone {
		return offroute.OpDone
	}
	return offroute.OpRunnable
}

func (b *searchBatch) Finish(op *searchOp) (int, error) {
	b.vals[op.idx] = op.val
	b.opFree.Put(op)
	return op.idx, op.err
}

// beginOp (re)starts a key's traversal.
func (c *Client) beginOp(op *searchOp) {
	c.descended(op, op.d.begin(c, op.key))
}

// descended acts on what the op's descent reported.
func (c *Client) descended(op *searchOp, st descentStatus) {
	switch st {
	case descPosted:
		op.state = opDescend
	case descArrived:
		c.enterLeaf(op)
	case descRestart:
		c.restartOp(op)
	default:
		c.failOp(op, op.d.err)
	}
}

// stepOp polls the op's outstanding read and advances its state machine
// until it either posts again or completes.
func (c *Client) stepOp(op *searchOp) {
	if op.state == opDescend {
		c.descended(op, op.d.step(c))
		return
	}
	c.reap(op.h)
	op.h = nil
	switch op.state {
	case opSpecWait:
		cellC := c.ix.leaf.entryCells[op.specIdx]
		if checkVersions(op.im.buf, 0, []cell{cellC}) == nil { // torn: misspeculation
			if e := op.im.entry(op.specIdx); e.occupied && e.key == op.key {
				val, ptr := c.detachValue(e.value)
				if !c.ix.opts.Indirect {
					op.val = val
					c.completeOp(op)
					return
				}
				if !ptr.IsNil() {
					c.postIndirectOp(op, ptr)
					return
				}
			}
		}
		c.misspeculated(op)

	case opLeafWait:
		if op.needMeta {
			// Dedicated metadata READ (the "+Leaf Meta" ablation, §3.2.2):
			// replica 0 is fetched after the window, costing the extra
			// dependent round trip the ablation measures.
			op.needMeta = false
			rc := c.ix.leaf.replicaCells[0]
			c.postOpRead(op, op.d.ref.addr.Add(uint64(rc.Off)), op.im.buf[rc.Off:rc.End()], opLeafWait)
			return
		}
		c.finishLeafOp(op)

	case opIndirectWait:
		// The block holds [8B key][value]; a key mismatch means the entry
		// was concurrently re-pointed.
		switch {
		case binary.LittleEndian.Uint64(op.valBuf[:8]) == op.key:
			op.val = op.valBuf[8:]
			c.completeOp(op)
		case op.speculating:
			c.misspeculated(op)
		default:
			c.restartOp(op)
		}

	default:
		c.failOp(op, fmt.Errorf("core: search(%#x): step in state %d", op.key, op.state))
	}
}

// postOpRead posts one READ for the op and moves it to state.
func (c *Client) postOpRead(op *searchOp, addr dmsim.GAddr, buf []byte, state int) {
	h, err := c.dc.PostRead(addr, buf)
	if err != nil {
		c.failOp(op, err)
		return
	}
	op.h, op.state = h, state
}

// postIndirectOp follows a leaf entry's block pointer (§4.5). The buffer
// is the caller's result, so every read gets its own.
func (c *Client) postIndirectOp(op *searchOp, ptr dmsim.GAddr) {
	op.valBuf = make([]byte, 8+c.ix.opts.ValueSize)
	c.postOpRead(op, ptr, op.valBuf, opIndirectWait)
}

// enterLeaf starts reading the leaf at op.d.ref. A Search-started op
// first asks the hotspot buffer for a hot entry of the key's
// neighborhood and speculatively reads that single cell (§4.3).
func (c *Client) enterLeaf(op *searchOp) {
	lay := c.ix.leaf
	if op.im == nil {
		op.im = lay.getImage()
	}
	if op.spec {
		leaf := op.d.ref.addr
		if idx := c.cn.hotspot.lookup(leaf, op.key, lay.homeOf(op.key), lay.h); idx >= 0 {
			op.speculating, op.specIdx = true, idx
			cellC := lay.entryCells[idx]
			c.postOpRead(op, leaf.Add(uint64(cellC.Off)), op.im.buf[cellC.Off:cellC.End()], opSpecWait)
			return
		}
	}
	c.postLeafOp(op)
}

// misspeculated drops the hot entry that did not hold the key (moved,
// deleted, torn, or re-pointed) and falls back to the window read.
func (c *Client) misspeculated(op *searchOp) {
	op.speculating = false
	c.cn.hotspot.noteSpeculation(false)
	c.obs.HotspotMisses.Inc()
	c.cn.hotspot.drop(op.d.ref.addr, op.specIdx)
	c.postLeafOp(op)
}

// postLeafOp posts the neighborhood window of the leaf at op.d.ref:
// entries [home, home+h) (circular) plus a metadata replica, as one READ
// or, when the window wraps around the leaf, one doorbell batch. With
// the ReplicateMeta ablation off no replica is covered and a dedicated
// READ follows (needMeta).
func (c *Client) postLeafOp(op *searchOp) {
	lay := c.ix.leaf
	leaf := op.d.ref.addr
	segs := lay.neighborhoodSegments(op.segBuf[:0], lay.homeOf(op.key), lay.h, c.ix.opts.ReplicateMeta)
	op.ranges = segs
	op.metaG = lay.metaInRanges(segs)
	if op.needMeta = !c.ix.opts.ReplicateMeta || op.metaG < 0; op.needMeta {
		rc := lay.replicaCells[0]
		op.metaG = 0
		op.ranges = append(op.ranges, byteRange{Off: rc.Off, End: rc.End()})
	}
	if len(segs) == 1 {
		c.postOpRead(op, leaf.Add(uint64(segs[0].Off)), op.im.buf[segs[0].Off:segs[0].End], opLeafWait)
		return
	}
	c.db.stage(leaf, op.im, segs)
	h, err := c.dc.PostReadBatch(c.db.addrs, c.db.bufs)
	if err != nil {
		c.failOp(op, err)
		return
	}
	op.h, op.state = h, opLeafWait
}

// finishLeafOp validates and decodes a completed leaf window.
func (c *Client) finishLeafOp(op *searchOp) {
	lay := c.ix.leaf
	if err := op.im.checkRanges(op.ranges); err != nil {
		c.obs.TornReads.Inc()
		if op.torn++; op.torn > maxRetries {
			c.failOp(op, fmt.Errorf("core: leaf %v: torn-read retries exhausted", op.d.ref.addr))
			return
		}
		c.backoff.Yield(c.dc)
		c.postLeafOp(op) // repost the same window into the same image
		return
	}
	c.backoff.Reset()

	foundIdx, foundVal, consistent := op.im.probe(lay.homeOf(op.key), op.key)
	if !consistent {
		c.restartOp(op) // concurrent hop-range write caught mid-flight
		return
	}
	meta := op.im.meta(op.metaG)
	follow, err := c.validateLeafMeta(&op.d.ref, meta, op.key, foundIdx >= 0)
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
		c.cn.hotspot.record(op.d.ref.addr, foundIdx, op.key)
		switch {
		case !c.ix.opts.Indirect:
			op.val = val
			c.completeOp(op)
		case ptr.IsNil():
			c.restartOp(op)
		default:
			c.postIndirectOp(op, ptr)
		}
		return
	}
	if follow {
		c.obs.SiblingChases.Inc()
		if op.d.hops++; op.d.hops > maxRetries {
			c.failOp(op, fmt.Errorf("core: search(%#x): sibling chain too long", op.key))
			return
		}
		op.d.ref = leafRef{addr: meta.sibling}
		c.enterLeaf(op)
		return
	}
	op.err = ErrNotFound
	c.completeOp(op)
}

// restartOp retraverses one key after an optimistic conflict; other keys
// in a batch are untouched.
func (c *Client) restartOp(op *searchOp) {
	if op.restarts++; op.restarts > maxRetries {
		c.failOp(op, fmt.Errorf("core: search(%#x): retries exhausted", op.key))
		return
	}
	c.releaseOpBuffers(op)
	c.noteRestart()
	c.beginOp(op)
}

func (c *Client) completeOp(op *searchOp) {
	if op.speculating {
		c.cn.hotspot.noteSpeculation(true)
		c.obs.HotspotHits.Inc()
	}
	c.backoff.Reset()
	c.releaseOpBuffers(op)
	op.state = opDone
}

func (c *Client) failOp(op *searchOp, err error) {
	op.err = err
	c.releaseOpBuffers(op)
	op.state = opDone
}

// releaseOpBuffers drains any in-flight completion (reap is nil-safe)
// and returns pooled images.
func (c *Client) releaseOpBuffers(op *searchOp) {
	op.d.release(c)
	c.reap(op.h)
	op.h = nil
	if op.im != nil {
		c.ix.leaf.putImage(op.im)
		op.im = nil
	}
}
