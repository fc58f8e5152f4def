package sherman

import (
	"encoding/binary"
	"fmt"

	"chime/internal/dmsim"
	"chime/internal/obs"
	"chime/internal/offroute"
)

// The point-read engine for the Sherman baseline: the same posted-verb
// state machine as core's, so the pipelining sensitivity experiment
// compares the two systems through an identical interface. One key is a
// batchOp: the descent (descent.go), whole-leaf READs along the B-link
// chain (Sherman's read amplification is the point of the comparison),
// and the KV block of an indirect entry. Search steps the client's own op
// to completion — every step polls the verb the last one posted, which
// is exactly a synchronous verb; SearchBatch keeps up to depth ops in
// flight on one client.

const (
	sOpDescend      = iota // the descent's super-block or internal-node read
	sOpLeafWait            // a whole-leaf read
	sOpIndirectWait        // the KV block of an indirect entry
	sOpDone
)

type batchOp struct {
	key uint64
	idx int

	state int
	d     descent // root→leaf; d.leaf is the leaf being read from then on

	h      *dmsim.Completion
	img    *image // leaf image, kept across the op's reuses
	valBuf []byte

	restarts, torn int

	val []byte
	err error
}

// reset readies the op for a new key, keeping its buffers.
func (op *batchOp) reset(key uint64, idx int) {
	*op = batchOp{key: key, idx: idx, img: op.img, d: descent{path: op.d.path[:0], img: op.d.img}}
}

// searchOneSided performs a point query with one-sided verbs, fetching
// the entire leaf node — the read amplification CHIME's hopscotch leaves
// eliminate: the client's own op, stepped until done. The public Search
// (offload.go) routes between this and the MN-side offload program.
func (c *Client) searchOneSided(key uint64) ([]byte, error) {
	op := &c.sop
	op.reset(key, 0)
	for c.beginOp(op); op.state != sOpDone; {
		c.stepOp(op)
	}
	return op.val, op.err
}

// SearchBatch performs up to depth point lookups concurrently on this
// client; results are positionally aligned with keys and absent keys
// report ErrNotFound.
func (c *Client) SearchBatch(keys []uint64, depth int) ([][]byte, []error) {
	b := &c.sb
	b.c, b.keys, b.vals = c, keys, make([][]byte, len(keys))
	errs := b.ring.Run(&c.port, ".search_batch", obs.OpBatchRead, len(keys), depth, b)
	vals := b.vals
	b.keys, b.vals = nil, nil
	return vals, errs
}

// searchBatch runs SearchBatch's ops on the ring, reusing finished ones
// from batch to batch.
type searchBatch struct {
	c      *Client
	ring   offroute.Ring[*batchOp]
	keys   []uint64
	vals   [][]byte
	opFree offroute.Free[batchOp]
}

func (b *searchBatch) Start(i int) *batchOp {
	op := b.opFree.Get()
	op.reset(b.keys[i], i)
	b.c.beginOp(op)
	return op
}

func (b *searchBatch) Step(op *batchOp) { b.c.stepOp(op) }

func (b *searchBatch) State(op *batchOp) offroute.OpState {
	if op.state == sOpDone {
		return offroute.OpDone
	}
	return offroute.OpRunnable
}

func (b *searchBatch) Finish(op *batchOp) (int, error) {
	b.vals[op.idx] = op.val
	b.opFree.Put(op)
	return op.idx, op.err
}

// beginOp (re)starts a key's traversal.
func (c *Client) beginOp(op *batchOp) {
	c.descended(op, op.d.begin(c, op.key))
}

// descended acts on what the op's descent reported.
func (c *Client) descended(op *batchOp, st descentStatus) {
	switch st {
	case descPosted:
		op.state = sOpDescend
	case descArrived:
		c.postLeafOp(op)
	case descRestart:
		c.restartOp(op)
	default:
		c.failOp(op, op.d.err)
	}
}

func (c *Client) postLeafOp(op *batchOp) {
	op.img = c.ix.leaf.recycle(op.img)
	h, err := c.dc.PostRead(op.d.leaf.Add(lineSize), op.img.body())
	if err != nil {
		c.failOp(op, err)
		return
	}
	op.h, op.state = h, sOpLeafWait
}

// stepOp polls the op's outstanding read and advances its state machine
// until it either posts again or completes.
func (c *Client) stepOp(op *batchOp) {
	if op.state == sOpDescend {
		c.descended(op, op.d.step(c))
		return
	}
	c.reap(op.h)
	op.h = nil
	switch op.state {
	case sOpLeafWait:
		if err := op.img.check(); err != nil {
			c.obs.TornReads.Inc()
			if op.torn++; op.torn > maxRetries {
				c.failOp(op, fmt.Errorf("sherman: leaf %v: torn-read retries exhausted", op.d.leaf))
				return
			}
			c.ys.Yield(c.dc)
			c.postLeafOp(op)
			return
		}
		c.ys.Reset()
		c.finishLeafOp(op)

	case sOpIndirectWait:
		// The block holds [8B key][value]; a key mismatch means the entry
		// was concurrently re-pointed.
		if binary.LittleEndian.Uint64(op.valBuf[:8]) != op.key {
			c.restartOp(op)
			return
		}
		op.val = op.valBuf[8:]
		op.state = sOpDone

	default:
		c.failOp(op, fmt.Errorf("sherman: search(%#x): step in state %d", op.key, op.state))
	}
}

// finishLeafOp searches a validated leaf image: fence keys first (a
// half-split or stale parent sends the op along the B-link chain or
// back to the root), then the slots.
func (c *Client) finishLeafOp(op *batchOp) {
	hdr := op.img.header()
	if !hdr.valid || op.key < hdr.fenceLow {
		c.restartOp(op)
		return
	}
	if !hdr.fenceInf && op.key >= hdr.fenceHi {
		if hdr.sibling.IsNil() {
			c.restartOp(op)
			return
		}
		c.obs.SiblingChases.Inc()
		c.dropParent(op.d.parent)
		if op.d.hops++; op.d.hops > maxRetries {
			c.failOp(op, fmt.Errorf("sherman: search(%#x): leaf chain too long", op.key))
			return
		}
		op.d.leaf = hdr.sibling
		c.postLeafOp(op)
		return
	}
	slot, _ := op.img.find(op.key)
	if slot < 0 {
		op.err = ErrNotFound
		op.state = sOpDone
		return
	}
	if !c.ix.opts.Indirect {
		op.val = append([]byte(nil), op.img.value(slot)...) // the caller's result
		op.state = sOpDone
		return
	}
	ptr := ptrOf(op.img.value(slot))
	if ptr.IsNil() {
		c.restartOp(op)
		return
	}
	op.valBuf = make([]byte, 8+c.ix.opts.ValueSize) // the caller's result
	h, err := c.dc.PostRead(ptr, op.valBuf)
	if err != nil {
		c.failOp(op, err)
		return
	}
	op.h, op.state = h, sOpIndirectWait
}

// restartOp retraverses one key after an optimistic conflict; other keys
// in a batch are untouched.
func (c *Client) restartOp(op *batchOp) {
	if op.restarts++; op.restarts > maxRetries {
		c.failOp(op, fmt.Errorf("sherman: search(%#x): retries exhausted", op.key))
		return
	}
	op.d.release(c)
	c.noteRestart()
	c.beginOp(op)
}

func (c *Client) failOp(op *batchOp, err error) {
	op.d.release(c)
	c.reap(op.h)
	op.h = nil
	op.err = err
	op.state = sOpDone
}
