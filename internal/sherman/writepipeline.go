package sherman

import (
	"fmt"
	"sort"

	"chime/internal/dmsim"
	"chime/internal/obs"
)

// Pipelined batch writes for the Sherman baseline: the same posted-verb
// write state machine as core.InsertBatch, so the write-pipelining
// sensitivity experiment compares the two systems through an identical
// interface. Sherman fetches whole leaves under the lock (its write path
// reads the full node before picking a slot), so every cycle posts a
// full-node READ; the write-back is fine-grained — only the touched
// entry cells ride the doorbell batch alongside the cleared lock word.
//
// Keys resolving to the same leaf while its cycle is still collecting
// are combined into one lock/fetch/write round, exactly as in core. The
// batch path bypasses the local lock table (its blocking Acquire would
// stall the rest of the batch); the remote lock word stays the ground
// truth and ReleaseRemote on a never-Acquired address is a no-op.

// wOp states.
const (
	swDescend = iota + 1 // the descent's super-block or internal-node read
	swLockWait
	swFetchWait
	swWriteWait
	swJoined
	swDone
)

type writeKind int

const (
	writeUpsert writeKind = iota // insert-or-overwrite
	writeUpdate                  // overwrite-only, ErrNotFound when absent
)

// wOp is one in-flight key of an InsertBatch/UpdateBatch.
type wOp struct {
	kind writeKind
	key  uint64
	val  []byte
	idx  int

	state int
	d     descent // root→leaf; d.leaf is the leaf the op writes to

	restarts, torn, casFails int

	cy       *wCycle
	notFound bool
	err      error
}

// wCycle is one lock/fetch/write round over a single leaf, shared by
// every batch key that resolved to that leaf while it was collecting.
type wCycle struct {
	leaf       dmsim.GAddr
	leader     *wOp
	ops        []*wOp
	collecting bool

	img *image // from the client's wcFree; back there in releaseWCycle
	h   *dmsim.Completion

	// settled holds the ops whose outcome commits when the posted
	// doorbell write+unlock completes.
	settled []*wOp
}

// swSched is the per-batch scheduler state.
type swSched struct {
	cycles map[uint64]*wCycle
	wake   []*wOp

	cyclesN  int64
	combined int64
}

// InsertBatch performs up to depth concurrent upserts on this client;
// results are positionally aligned with keys.
func (c *Client) InsertBatch(keys []uint64, values [][]byte, depth int) []error {
	return c.runWriteBatch(writeUpsert, keys, values, depth)
}

// UpdateBatch performs up to depth concurrent overwrite-only updates,
// returning ErrNotFound per absent key.
func (c *Client) UpdateBatch(keys []uint64, values [][]byte, depth int) []error {
	return c.runWriteBatch(writeUpdate, keys, values, depth)
}

// MultiPut is the bench-facing alias for InsertBatch.
func (c *Client) MultiPut(keys []uint64, values [][]byte, depth int) []error {
	return c.InsertBatch(keys, values, depth)
}

// WriteCombineStats reports executed leaf write cycles and batch keys
// absorbed into an already-open cycle on the same leaf.
func (c *Client) WriteCombineStats() (cycles, combinedKeys int64) {
	return c.wcCycles, c.wcCombined
}

func (c *Client) runWriteBatch(kind writeKind, keys []uint64, values [][]byte, depth int) []error {
	n := len(keys)
	errs := make([]error, n)
	if n == 0 {
		return errs
	}
	if len(values) != n {
		err := fmt.Errorf("sherman: write batch: %d keys but %d values", n, len(values))
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	if depth < 1 {
		depth = 1
	}
	if sp := c.obs.Tracer.Begin("sherman.write_batch", "idx", c.dc.ID(), c.dc.Now()); sp != nil {
		sp.Arg("keys", n)
		sp.Arg("depth", depth)
		defer func() { sp.End(c.dc.Now()) }()
	}
	if fl := c.dc.Flight(); fl != nil {
		fl.Begin(obs.OpBatchWrite, c.dc.Now())
		defer func() { fl.End(c.dc.Now()) }()
	}

	st := &swSched{cycles: make(map[uint64]*wCycle)}
	var queue []*wOp
	var all []*wOp
	live := 0
	next := 0

	settle := func(op *wOp) {
		switch op.state {
		case swDone:
			errs[op.idx] = op.err
			live--
		case swJoined:
			// Parked on a cycle; its leader drives it from here.
		default:
			queue = append(queue, op)
		}
	}
	drain := func() {
		for len(st.wake) > 0 {
			w := st.wake
			st.wake = nil
			for _, op := range w {
				settle(op)
			}
		}
	}
	admit := func() {
		for next < n && live < depth {
			op := &wOp{kind: kind, key: keys[next], idx: next}
			next++
			live++
			all = append(all, op)
			val, err := c.prepareValue(op.key, values[op.idx])
			if err != nil {
				op.err, op.state = err, swDone
			} else {
				op.val = val
				c.beginWOp(st, op)
			}
			settle(op)
			drain()
		}
	}

	admit()
	for live > 0 {
		if len(queue) == 0 {
			for _, op := range all {
				if op.state != swDone {
					errs[op.idx] = fmt.Errorf("sherman: write batch(%#x): scheduler stalled in state %d", op.key, op.state)
				}
			}
			break
		}
		op := queue[0]
		queue = queue[1:]
		c.stepWOp(st, op)
		settle(op)
		drain()
		admit()
	}

	c.wcCycles += st.cyclesN
	c.wcCombined += st.combined
	c.obs.WCCycles.Add(st.cyclesN)
	c.obs.WCCombined.Add(st.combined)
	return errs
}

// beginWOp (re)starts a key's traversal toward its leaf.
func (c *Client) beginWOp(st *swSched, op *wOp) {
	op.cy = nil
	op.notFound = false
	c.wDescended(st, op, op.d.begin(c, op.key))
}

// wDescended acts on what the op's descent reported: at the leaf the op
// joins or opens a write cycle.
func (c *Client) wDescended(st *swSched, op *wOp, ds descentStatus) {
	switch ds {
	case descPosted:
		op.state = swDescend
	case descArrived:
		c.arriveWAtLeaf(st, op)
	case descRestart:
		c.restartWOp(st, op)
	default:
		c.failWOp(op, op.d.err)
	}
}

// arriveWAtLeaf joins the leaf's collecting cycle, or opens a new one
// and posts its lock CAS.
func (c *Client) arriveWAtLeaf(st *swSched, op *wOp) {
	k := op.d.leaf.Pack()
	if cy, ok := st.cycles[k]; ok && cy.collecting {
		op.cy = cy
		cy.ops = append(cy.ops, op)
		op.state = swJoined
		st.combined++
		return
	}
	cy := &wCycle{leaf: op.d.leaf, leader: op, ops: []*wOp{op}, collecting: true}
	st.cycles[k] = cy
	st.cyclesN++
	op.cy = cy
	c.postWCycleLock(st, op)
}

// postWCycleLock posts the leaf lock CAS (Sherman's plain lock bit; no
// piggyback payload).
func (c *Client) postWCycleLock(st *swSched, op *wOp) {
	cy := op.cy
	h, err := c.dc.PostMaskedCAS(cy.leaf, 0, 1, 1, 1)
	if err != nil {
		c.failWCycle(st, op, err, false)
		return
	}
	cy.h = h
	op.state = swLockWait
}

// postWCycleFetch freezes the cycle's membership and posts the
// whole-node read (Sherman always reads the full leaf under the lock).
func (c *Client) postWCycleFetch(st *swSched, drv *wOp) {
	cy := drv.cy
	cy.collecting = false
	if cur, ok := st.cycles[cy.leaf.Pack()]; ok && cur == cy {
		delete(st.cycles, cy.leaf.Pack())
	}
	if n := len(c.wcFree); n > 0 {
		cy.img, c.wcFree = c.wcFree[n-1], c.wcFree[:n-1]
	}
	cy.img = c.ix.leaf.recycle(cy.img)
	h, err := c.dc.PostRead(cy.leaf.Add(lineSize), cy.img.body())
	if err != nil {
		c.failWCycle(st, drv, err, true)
		return
	}
	cy.h = h
	drv.state = swFetchWait
}

func (c *Client) stepWOp(st *swSched, op *wOp) {
	switch op.state {
	case swDescend:
		c.wDescended(st, op, op.d.step(c))

	case swLockWait:
		cy := op.cy
		c.dc.Poll(cy.h)
		_, ok := cy.h.CASResult()
		cy.h = nil
		if !ok {
			op.casFails++
			if op.casFails > maxRetries {
				c.failWCycle(st, op, fmt.Errorf("sherman: leaf %v: lock acquisition starved", cy.leaf), false)
				return
			}
			c.ys.Yield(c.dc)
			c.postWCycleLock(st, op) // the cycle keeps collecting meanwhile
			return
		}
		c.ys.Reset()
		c.postWCycleFetch(st, op)

	case swFetchWait:
		cy := op.cy
		c.dc.Poll(cy.h)
		cy.h = nil
		// The lock is held, so tearing cannot happen; validate anyway for
		// defense in depth (mirrors the sync readNode).
		if err := cy.img.check(); err != nil {
			op.torn++
			if op.torn > maxRetries {
				c.failWCycle(st, op, fmt.Errorf("sherman: leaf %v: torn-read retries exhausted", cy.leaf), true)
				return
			}
			c.ys.Yield(c.dc)
			h, perr := c.dc.PostRead(cy.leaf.Add(lineSize), cy.img.body())
			if perr != nil {
				c.failWCycle(st, op, perr, true)
				return
			}
			cy.h = h
			return
		}
		c.applyWCycle(st, op)

	case swWriteWait:
		cy := op.cy
		c.dc.Poll(cy.h)
		cy.h = nil
		c.ys.Reset()
		for _, d := range cy.settled {
			d.cy = nil
			if d.notFound {
				d.err = ErrNotFound
			}
			d.state = swDone
			if d != op {
				st.wake = append(st.wake, d)
			}
		}
		c.releaseWCycle(cy)

	default:
		c.failWOp(op, fmt.Errorf("sherman: write batch: step in state %d", op.state))
	}
}

// applyWCycle validates and mutates the fetched leaf image for every op
// of the cycle, then posts ONE doorbell batch carrying the changed entry
// cells plus the cleared lock word. Per-key conflicts (moved fences)
// peel only the affected ops off the cycle.
func (c *Client) applyWCycle(st *swSched, stepped *wOp) {
	cy := stepped.cy
	hdr := cy.img.header()

	leave := func(op *wOp, f func(*wOp)) {
		op.cy = nil
		f(op)
		if op != stepped {
			st.wake = append(st.wake, op)
		}
	}

	if !hdr.valid {
		c.batchUnlock(cy.leaf)
		for _, op := range cy.ops {
			leave(op, func(op *wOp) { c.restartWOp(st, op) })
		}
		c.releaseWCycle(cy)
		return
	}

	pending := make([]*wOp, 0, len(cy.ops))
	for _, op := range cy.ops {
		if op.key < hdr.fenceLow {
			leave(op, func(op *wOp) { c.restartWOp(st, op) })
			continue
		}
		if !hdr.fenceInf && op.key >= hdr.fenceHi {
			if !hdr.sibling.IsNil() {
				// Half-split: chase the B-link sibling chain, as the sync
				// insert and modify paths do.
				sib := hdr.sibling
				leave(op, func(op *wOp) { c.rearriveWOp(st, op, sib) })
			} else {
				leave(op, func(op *wOp) { c.restartWOp(st, op) })
			}
			continue
		}
		pending = append(pending, op)
	}
	cy.ops = pending

	if len(pending) == 0 {
		c.batchUnlock(cy.leaf)
		c.releaseWCycle(cy)
		return
	}
	if !containsWOp(pending, cy.leader) {
		cy.leader = pending[0]
	}

	changed := c.wcChanged[:0]
	var done []*wOp
	for pi, op := range pending {
		slot, free := cy.img.find(op.key)
		if slot < 0 && op.kind == writeUpdate {
			op.notFound = true
			done = append(done, op)
			continue
		}
		if slot < 0 {
			slot = free
		}
		if slot < 0 {
			// Leaf full: split synchronously; both halves are rewritten from
			// the image, so the already-applied ops commit with the split.
			c.splitWCycle(st, cy, stepped, op, hdr, done, pending[pi+1:])
			return
		}
		cy.img.setEntry(slot, op.key, op.val, true)
		if op.kind == writeUpsert {
			c.placed.Note(0, op.key)
		}
		changed = append(changed, slot)
		done = append(done, op)
	}
	c.wcChanged = changed

	if len(changed) == 0 {
		// Every pending op was an absent-key update: nothing to write back.
		c.batchUnlock(cy.leaf)
		for _, op := range done {
			leave(op, func(op *wOp) {
				op.err = ErrNotFound
				op.state = swDone
			})
		}
		c.releaseWCycle(cy)
		return
	}

	c.stageWCells(cy, changed)
	c.wAddrs = append(c.wAddrs, cy.leaf)
	c.wBufs = append(c.wBufs, unlocked[:])
	h, err := c.dc.PostWriteBatch(c.wAddrs, c.wBufs)
	if err != nil {
		c.batchUnlock(cy.leaf)
		for _, op := range pending {
			leave(op, func(op *wOp) { c.failWOp(op, err) })
		}
		c.releaseWCycle(cy)
		return
	}
	c.cn.locks.ReleaseRemote(c.dc, cy.leaf.Pack())
	cy.h = h
	cy.settled = done
	drv := cy.leader
	drv.state = swWriteWait
	if drv != stepped {
		st.wake = append(st.wake, drv)
	}
}

// splitWCycle handles a full leaf discovered mid-apply: the synchronous
// splitLeaf rewrites both halves from the image (committing every
// already-applied mutation) and unlocks internally. Applied ops
// complete; the splitting op and the not-yet-applied rest retraverse.
func (c *Client) splitWCycle(st *swSched, cy *wCycle, stepped, splitter *wOp, hdr header, done, rest []*wOp) {
	err := c.splitLeaf(cy.leaf, splitter.d.path, cy.img, hdr, splitter.key)
	for _, op := range done {
		op.cy = nil
		if op.notFound {
			op.err = ErrNotFound
		}
		op.state = swDone
		if op != stepped {
			st.wake = append(st.wake, op)
		}
	}
	splitter.cy = nil
	if err != nil {
		c.failWOp(splitter, err)
	} else {
		c.restartWOp(st, splitter)
	}
	if splitter != stepped {
		st.wake = append(st.wake, splitter)
	}
	for _, op := range rest {
		op.cy = nil
		c.restartWOp(st, op)
		if op != stepped {
			st.wake = append(st.wake, op)
		}
	}
	c.releaseWCycle(cy)
}

// stageWCells stages the entry cells of the changed slots in the
// client's write-batch lists as write-back ranges, in slot order, merging
// cells that exactly abut (and the repeats of a slot two keys of the
// cycle both wrote).
func (c *Client) stageWCells(cy *wCycle, changed []int) {
	sort.Ints(changed)
	c.wAddrs, c.wBufs = c.wAddrs[:0], c.wBufs[:0]
	off, end := 0, 0 // the open range; empty before the first cell
	flush := func() {
		if end > off {
			c.wAddrs = append(c.wAddrs, cy.leaf.Add(uint64(off)))
			c.wBufs = append(c.wBufs, cy.img.buf[off:end])
		}
	}
	for _, i := range changed {
		cell := c.ix.leaf.entryCells[i]
		if end >= cell.Off {
			end = max(end, cell.End())
			continue
		}
		flush()
		off, end = cell.Off, cell.End()
	}
	flush()
}

func containsWOp(ops []*wOp, op *wOp) bool {
	for _, o := range ops {
		if o == op {
			return true
		}
	}
	return false
}

// batchUnlock releases a batch-held leaf lock without the local lock
// table's handover path (the batch never Acquired the local slot).
func (c *Client) batchUnlock(leaf dmsim.GAddr) {
	if err := c.dc.Write(leaf, unlocked[:]); err != nil {
		return
	}
	c.cn.locks.ReleaseRemote(c.dc, leaf.Pack())
}

// rearriveWOp re-enters the leaf layer at a sibling (B-link chase). The
// op keeps its path: sibling leaves propagate splits through the same
// ancestors, exactly as the synchronous chase does.
func (c *Client) rearriveWOp(st *swSched, op *wOp, leaf dmsim.GAddr) {
	c.obs.SiblingChases.Inc()
	if op.d.hops++; op.d.hops > maxRetries {
		c.failWOp(op, fmt.Errorf("sherman: write batch(%#x): sibling chain too long", op.key))
		return
	}
	op.d.leaf = leaf
	c.arriveWAtLeaf(st, op)
}

// restartWOp retraverses one key after an optimistic conflict; the rest
// of the batch is untouched.
func (c *Client) restartWOp(st *swSched, op *wOp) {
	if op.restarts++; op.restarts > maxRetries {
		c.failWOp(op, fmt.Errorf("sherman: write batch(%#x): retries exhausted", op.key))
		return
	}
	op.d.release(c)
	c.noteRestart()
	c.beginWOp(st, op)
}

func (c *Client) failWOp(op *wOp, err error) {
	op.d.release(c)
	op.err = err
	op.state = swDone
}

// failWCycle fails every op of the cycle; locked says whether the leaf
// lock is held and must be released.
func (c *Client) failWCycle(st *swSched, stepped *wOp, err error, locked bool) {
	cy := stepped.cy
	if locked {
		c.batchUnlock(cy.leaf)
	}
	if cur, ok := st.cycles[cy.leaf.Pack()]; ok && cur == cy {
		delete(st.cycles, cy.leaf.Pack())
	}
	for _, op := range cy.ops {
		op.cy = nil
		c.failWOp(op, err)
		if op != stepped {
			st.wake = append(st.wake, op)
		}
	}
	c.releaseWCycle(cy)
}

// releaseWCycle drains any in-flight completion and hands the image to
// the next cycle.
func (c *Client) releaseWCycle(cy *wCycle) {
	c.dc.Poll(cy.h)
	cy.h = nil
	if cy.img != nil {
		c.wcFree = append(c.wcFree, cy.img)
		cy.img = nil
	}
	cy.settled = nil
	cy.ops = nil
}
