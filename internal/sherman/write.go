package sherman

import (
	"encoding/binary"
	"fmt"
	"slices"

	"chime/internal/dmsim"
	"chime/internal/lease"
	"chime/internal/obs"
	"chime/internal/offroute"
)

// The one leaf write engine of the Sherman baseline. Sherman writes in
// one way: lock the leaf, read the whole leaf (its write path reads the
// full node before picking a slot), write the entry cells, and release
// with a combined unlock — the touched cells and the cleared lock word in
// one doorbell batch. A write of one key is a wOp stepped through exactly
// those verbs. Insert, Update and Delete step the client's own op and
// cycle to completion: every step polls the verb the last one posted,
// which is a synchronous verb. InsertBatch and UpdateBatch keep up to
// depth ops in flight on one client on the admit/step ring CHIME's batch
// writer runs on (offroute.Ring), so the write-pipelining experiment
// compares the two systems through an identical interface.
//
// Keys of a batch that resolve to the same leaf while its cycle is still
// collecting are combined into one lock/fetch/write round. Same-CN
// contention between one-key writes is absorbed by the local lock table:
// such a write takes the leaf's local slot before its CAS and releases
// the way it acquired, by local handover when a contender waits. A batch
// bypasses the table — a blocking Acquire would stall the rest of the
// batch — and per-leaf combining plays the handover's part; the remote
// lock word is the ground truth for both. Under LeaseLocks nobody uses
// the table: a local handover would hand a waiter the holder's lease.

// wOp states.
const (
	swDescend   = iota + 1 // the descent's super-block or internal-node read
	swLockWait             // the leaf lock CAS
	swFetchWait            // the whole-leaf read under the lock
	swWriteWait            // the entry cells and the unlock, one doorbell batch
	swJoined               // parked on another op's cycle
	swDone
)

type writeKind uint8

const (
	writeUpsert writeKind = iota // insert-or-overwrite
	writeUpdate                  // overwrite-only, ErrNotFound when absent
	writeDelete                  // clear, ErrNotFound when absent
)

// wOp is one key's write.
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

// reset readies the op for a new key, keeping its descent's buffers.
func (op *wOp) reset(kind writeKind, key uint64, val []byte, idx int) {
	*op = wOp{kind: kind, key: key, val: val, idx: idx, d: descent{path: op.d.path[:0], img: op.d.img}}
}

// wCycle is one lock/fetch/write round over a single leaf, shared by
// every batch key that resolved to that leaf while it was collecting:
// from its opening until its lock is held (wBatch.cycles).
type wCycle struct {
	leaf   dmsim.GAddr
	leader *wOp
	ops    []*wOp

	// solo marks the cycle of a one-key write: its lock acquisition is
	// lock time in the flight ledger (phase is the phase it interrupted),
	// and outside lease mode it holds the leaf's local lock-table slot.
	solo  bool
	phase obs.Phase
	word  uint64 // the lock word the CAS installs: the lock bit, or our lease

	img *image // kept across the cycle's reuses
	h   *dmsim.Completion

	// settled holds the ops whose outcome commits when the posted
	// doorbell write+unlock completes.
	settled []*wOp
}

// reset readies the cycle for a new leaf, keeping its buffers.
func (cy *wCycle) reset(leaf dmsim.GAddr, leader *wOp, solo bool) {
	*cy = wCycle{leaf: leaf, leader: leader, ops: append(cy.ops[:0], leader), solo: solo,
		img: cy.img, settled: cy.settled[:0]}
}

// Insert adds or overwrites a key (upsert).
func (c *Client) Insert(key uint64, value []byte) error {
	defer c.port.End(c.port.Begin(".insert", obs.OpInsert))
	val, err := c.prepareValue(key, value)
	if err != nil {
		return err
	}
	return c.writeOne(writeUpsert, key, val)
}

// updateOneSided overwrites an existing key's value with one-sided
// verbs; the public Update (offload.go) routes between this and the
// MN-side offload program.
func (c *Client) updateOneSided(key uint64, value []byte) error {
	val, err := c.prepareValue(key, value)
	if err != nil {
		return err
	}
	return c.writeOne(writeUpdate, key, val)
}

// Delete removes a key.
func (c *Client) Delete(key uint64) error {
	defer c.port.End(c.port.Begin(".delete", obs.OpDelete))
	return c.writeOne(writeDelete, key, nil)
}

// writeOne steps the client's own op through one key's write.
func (c *Client) writeOne(kind writeKind, key uint64, val []byte) error {
	op := &c.wop
	op.reset(kind, key, val, 0)
	for c.beginWOp(nil, op); op.state != swDone; {
		c.stepWOp(nil, op)
	}
	return op.err
}

func (c *Client) prepareValue(key uint64, value []byte) ([]byte, error) {
	if !c.ix.opts.Indirect {
		if len(value) != c.ix.opts.ValueSize {
			return nil, fmt.Errorf("sherman: value is %dB, tree stores %dB", len(value), c.ix.opts.ValueSize)
		}
		return value, nil
	}
	block := make([]byte, 8+len(value))
	binary.LittleEndian.PutUint64(block[:8], key)
	copy(block[8:], value)
	addr, err := c.alloc.Alloc(len(block))
	if err != nil {
		return nil, err
	}
	if err := c.dc.Write(addr, block); err != nil {
		return nil, err
	}
	ptr := make([]byte, 8)
	binary.LittleEndian.PutUint64(ptr, addr.Pack())
	return ptr, nil
}

// InsertBatch performs up to depth concurrent upserts on this client;
// results are positionally aligned with keys.
func (c *Client) InsertBatch(keys []uint64, values [][]byte, depth int) []error {
	return c.writeBatch(writeUpsert, keys, values, depth)
}

// UpdateBatch performs up to depth concurrent overwrite-only updates,
// returning ErrNotFound per absent key.
func (c *Client) UpdateBatch(keys []uint64, values [][]byte, depth int) []error {
	return c.writeBatch(writeUpdate, keys, values, depth)
}

// MultiPut is the bench-facing alias for InsertBatch.
func (c *Client) MultiPut(keys []uint64, values [][]byte, depth int) []error {
	return c.InsertBatch(keys, values, depth)
}

// WriteCombineStats reports executed batch leaf write cycles and batch
// keys absorbed into an already-open cycle on the same leaf. A one-key
// write is not a combining cycle and is not counted.
func (c *Client) WriteCombineStats() (cycles, combinedKeys int64) {
	return c.wb.cyclesN, c.wb.combined
}

// wBatch is a client's batch writer: the ring its ops run on, the cycles
// still collecting keys, by leaf, and the ops and cycles it reuses from
// batch to batch. A nil *wBatch is a one-key write's.
type wBatch struct {
	c      *Client
	ring   offroute.Ring[*wOp]
	kind   writeKind
	keys   []uint64
	values [][]byte
	cycles map[uint64]*wCycle
	opFree offroute.Free[wOp]
	cyFree offroute.Free[wCycle]

	// Leaf write cycles run and keys absorbed into an already-open cycle,
	// over the client's batches (per-leaf write combining).
	cyclesN, combined int64
}

func (c *Client) writeBatch(kind writeKind, keys []uint64, values [][]byte, depth int) []error {
	b := &c.wb
	if b.c == nil {
		*b = wBatch{c: c, cycles: make(map[uint64]*wCycle)}
	}
	b.kind, b.keys, b.values = kind, keys, values
	cycles, combined := b.cyclesN, b.combined
	errs := b.ring.Write(&c.port, len(keys), len(values), depth, b)
	b.keys, b.values = nil, nil
	c.obs.WCCycles.Add(b.cyclesN - cycles)
	c.obs.WCCombined.Add(b.combined - combined)
	return errs
}

// Start admits key i: its op, prepared and begun.
func (b *wBatch) Start(i int) *wOp {
	c := b.c
	op := b.opFree.Get()
	op.reset(b.kind, b.keys[i], nil, i)
	val, err := c.prepareValue(op.key, b.values[i])
	if err != nil {
		op.err, op.state = err, swDone
		return op
	}
	op.val = val
	c.beginWOp(b, op)
	return op
}

func (b *wBatch) Step(op *wOp) { b.c.stepWOp(b, op) }

func (b *wBatch) State(op *wOp) offroute.OpState {
	switch op.state {
	case swDone:
		return offroute.OpDone
	case swJoined:
		return offroute.OpParked
	}
	return offroute.OpRunnable
}

func (b *wBatch) Finish(op *wOp) (int, error) {
	b.opFree.Put(op)
	return op.idx, op.err
}

// wake files op with the ring again; only a batch has other ops to wake.
func (b *wBatch) wake(op, stepped *wOp) {
	if b != nil && op != stepped {
		b.ring.Wake(op)
	}
}

// open starts a cycle on leaf led by op, or reports the leaf's
// collecting cycle, which op joins.
func (c *Client) open(b *wBatch, op *wOp, leaf dmsim.GAddr) (cy *wCycle, joined bool) {
	if b == nil {
		c.wcy.reset(leaf, op, true)
		return &c.wcy, false
	}
	k := leaf.Pack()
	if cy, ok := b.cycles[k]; ok {
		cy.ops = append(cy.ops, op)
		b.combined++
		return cy, true
	}
	cy = b.cyFree.Get()
	cy.reset(leaf, op, false)
	b.cycles[k] = cy
	b.cyclesN++
	return cy, false
}

// beginWOp (re)starts a key's traversal toward its leaf.
func (c *Client) beginWOp(b *wBatch, op *wOp) {
	op.cy = nil
	op.notFound = false
	c.wDescended(b, op, op.d.begin(c, op.key))
}

// wDescended acts on what the op's descent reported: at the leaf the op
// joins or opens a write cycle.
func (c *Client) wDescended(b *wBatch, op *wOp, ds descentStatus) {
	switch ds {
	case descPosted:
		op.state = swDescend
	case descArrived:
		c.arriveWAtLeaf(b, op)
	case descRestart:
		c.restartWOp(b, op)
	default:
		c.failWOp(op, op.d.err)
	}
}

// arriveWAtLeaf joins the leaf's collecting cycle, or opens a new one
// and locks the leaf. All time until a one-key write holds the lock —
// the local handover wait, CAS round trips, backoff — is lock time in
// the flight ledger.
func (c *Client) arriveWAtLeaf(b *wBatch, op *wOp) {
	cy, joined := c.open(b, op, op.d.leaf)
	op.cy = cy
	if joined {
		op.state = swJoined
		return
	}
	if cy.solo {
		cy.phase = c.dc.Flight().SetPhase(obs.PhaseLockBackoff)
		if c.holdsSlot(cy) {
			if _, handover := c.cn.locks.Acquire(c.dc, cy.leaf.Pack()); handover {
				c.lockHeld(b, op)
				return
			}
		}
	}
	c.postWCycleLock(b, op)
}

// holdsSlot says the cycle takes the leaf's local lock-table slot: a
// one-key write outside lease mode.
func (c *Client) holdsSlot(cy *wCycle) bool { return cy.solo && !c.ix.opts.LeaseLocks }

// lockSwap is what a lock CAS swaps in, under which mask: the lock bit,
// or under LeaseLocks this client's (owner, expiry) lease over the whole
// word. The leaf write and the internal-node lock share it.
//
//chime:noalloc
func (c *Client) lockSwap() (word, mask uint64) {
	if !c.ix.opts.LeaseLocks {
		return 1, 1
	}
	leaseNs := c.ix.opts.LeaseNs
	if leaseNs <= 0 {
		leaseNs = lease.DefaultNs
	}
	return lease.Word(c.dc.ID(), c.dc.Now()+leaseNs), ^uint64(0)
}

// lockLost acts on a lock CAS that found prev instead of a free lock:
// under LeaseLocks a lock stuck under an expired lease is stolen with a
// full-word CAS from prev to word, the lease the failed CAS tried to
// install. No repair read is needed — every write re-reads the node under
// the lock before touching it, so a steal leaves nothing stale behind.
// Otherwise it counts a lock backoff and backs off; held reports a steal.
//
//chime:noalloc
func (c *Client) lockLost(addr dmsim.GAddr, prev, word uint64) (held bool, err error) {
	if c.ix.opts.LeaseLocks && lease.Expired(prev, c.dc.Now()) {
		c.obs.LeaseExpired.Inc()
		_, won, err := c.dc.CAS(addr, prev, word)
		if err != nil {
			return false, err
		}
		if won {
			c.obs.Recoveries.Inc()
			c.ys.Reset()
			return true, nil
		}
	}
	c.obs.LockBackoffs.Inc()
	c.ys.Yield(c.dc)
	return false, nil
}

// postWCycleLock posts the leaf lock CAS.
func (c *Client) postWCycleLock(b *wBatch, op *wOp) {
	cy := op.cy
	var mask uint64
	cy.word, mask = c.lockSwap()
	h, err := c.dc.PostMaskedCAS(cy.leaf, 0, cy.word, 1, mask)
	if err != nil {
		c.failWCycle(b, op, err, false)
		return
	}
	cy.h = h
	op.state = swLockWait
}

// lockHeld ends a lock acquisition: the one-key write's lock time is
// over, and the cycle's membership freezes as it posts the whole-node
// read.
func (c *Client) lockHeld(b *wBatch, drv *wOp) {
	cy := drv.cy
	if cy.solo {
		c.dc.Flight().SetPhase(cy.phase)
	}
	if b != nil && b.cycles[cy.leaf.Pack()] == cy {
		delete(b.cycles, cy.leaf.Pack())
	}
	c.postWCycleFetch(b, drv)
}

// postWCycleFetch (re)posts the whole-node read into the cycle's image.
func (c *Client) postWCycleFetch(b *wBatch, drv *wOp) {
	cy := drv.cy
	cy.img = c.ix.leaf.recycle(cy.img)
	h, err := c.dc.PostRead(cy.leaf.Add(lineSize), cy.img.body())
	if err != nil {
		c.failWCycle(b, drv, err, true)
		return
	}
	cy.h = h
	drv.state = swFetchWait
}

func (c *Client) stepWOp(b *wBatch, op *wOp) {
	switch op.state {
	case swDescend:
		c.wDescended(b, op, op.d.step(c))

	case swLockWait:
		cy := op.cy
		c.dc.Poll(cy.h)
		prev, ok := cy.h.CASResult()
		c.dc.Release(cy.h)
		cy.h = nil
		if ok {
			c.ys.Reset()
		} else if held, err := c.lockLost(cy.leaf, prev, cy.word); err != nil {
			c.failWCycle(b, op, err, false)
			return
		} else if !held {
			if op.casFails++; op.casFails > maxRetries {
				c.failWCycle(b, op, fmt.Errorf("sherman: lock %v starved", cy.leaf), false)
				return
			}
			c.postWCycleLock(b, op) // the cycle keeps collecting meanwhile
			return
		}
		c.lockHeld(b, op)

	case swFetchWait:
		cy := op.cy
		c.reap(cy.h)
		cy.h = nil
		// The lock is held, so tearing cannot happen; validate anyway for
		// defense in depth, as every whole-node read does.
		if err := cy.img.check(); err != nil {
			c.obs.TornReads.Inc()
			if op.torn++; op.torn > maxRetries {
				c.failWCycle(b, op, fmt.Errorf("sherman: leaf %v: torn-read retries exhausted", cy.leaf), true)
				return
			}
			c.ys.Yield(c.dc)
			c.postWCycleFetch(b, op)
			return
		}
		c.ys.Reset()
		c.applyWCycle(b, op)

	case swWriteWait:
		cy := op.cy
		c.reap(cy.h)
		cy.h = nil
		if c.holdsSlot(cy) {
			c.cn.locks.ReleaseRemote(c.dc, cy.leaf.Pack())
		}
		c.ys.Reset()
		c.settleWCycle(b, cy, op)

	default:
		c.failWOp(op, fmt.Errorf("sherman: write(%#x): step in state %d", op.key, op.state))
	}
}

// applyWCycle checks the fetched leaf's fences for every op of the cycle
// and applies the ops it covers to the image, then writes the changed
// entry cells back with the unlock. An op the leaf does not cover leaves
// the cycle: a half-split sends it along the B-link chain to the sibling,
// anything else back to the root. When no op stays, the leaf is unlocked
// before any of them moves on, as a one-key write must.
func (c *Client) applyWCycle(b *wBatch, stepped *wOp) {
	cy := stepped.cy
	hdr := cy.img.header()
	left := c.wLeft[:0]
	pending := cy.ops[:0]
	for _, op := range cy.ops {
		if hdr.valid && hdr.covers(op.key) {
			pending = append(pending, op)
		} else {
			left = append(left, op)
		}
	}
	cy.ops = pending
	if len(pending) == 0 {
		// The one-key cycle is the client's own: it is free before its
		// op moves on.
		c.unlock(cy.leaf, c.holdsSlot(cy))
		c.releaseWCycle(b, cy)
	}
	for _, op := range left {
		op.cy = nil
		if hdr.valid && op.key >= hdr.fenceLow && !hdr.sibling.IsNil() {
			c.rearriveWOp(b, op, hdr.sibling)
		} else {
			c.restartWOp(b, op)
		}
		b.wake(op, stepped)
	}
	c.wLeft = left[:0]
	if len(pending) == 0 {
		return
	}
	if !slices.Contains(pending, cy.leader) {
		cy.leader = pending[0]
	}

	changed := c.wcChanged[:0]
	for pi, op := range pending {
		slot, free := cy.img.find(op.key)
		if slot < 0 && op.kind != writeUpsert {
			op.notFound = true
			cy.settled = append(cy.settled, op)
			continue
		}
		if slot < 0 {
			slot = free
		}
		if slot < 0 {
			// Leaf full: split it; both halves are rewritten from the
			// image, so the ops already applied commit with the split.
			c.wcChanged = changed
			c.splitWCycle(b, cy, stepped, op, hdr, pending[pi+1:])
			return
		}
		if op.kind == writeDelete {
			cy.img.clearEntry(slot, true)
		} else {
			cy.img.setEntry(slot, op.key, op.val, true)
		}
		if op.kind == writeUpsert {
			c.placed.Note(0, op.key)
		}
		changed = append(changed, slot)
		cy.settled = append(cy.settled, op)
	}
	c.wcChanged = changed

	if len(changed) == 0 {
		// Every pending op missed its key: nothing to write back.
		c.unlock(cy.leaf, c.holdsSlot(cy))
		c.settleWCycle(b, cy, stepped)
		return
	}
	c.stageWCells(cy, changed)
	h, err := c.postWriteAndUnlock(cy.leaf, c.holdsSlot(cy))
	switch {
	case err != nil:
		c.failWCycle(b, stepped, err, true)
	case h == nil: // handed over
		c.settleWCycle(b, cy, stepped)
	default:
		cy.h = h
		drv := cy.leader
		drv.state = swWriteWait
		b.wake(drv, stepped)
	}
}

// splitWCycle splits the cycle's full leaf for splitter. The synchronous
// splitLeaf rewrites both halves from the image — committing every op
// already applied — and unlocks the leaf the way the cycle locked it.
// The applied ops complete; the splitter descends again, as after any
// split it makes, and the ops not yet applied restart.
func (c *Client) splitWCycle(b *wBatch, cy *wCycle, stepped, splitter *wOp, hdr header, rest []*wOp) {
	err := c.splitLeaf(cy.leaf, splitter.d.path, cy.img, hdr, splitter.key, c.holdsSlot(cy))
	rest = append(c.wLeft[:0], rest...) // the cycle's lists go with it
	c.settleWCycle(b, cy, stepped)
	splitter.cy = nil
	if err != nil {
		c.failWOp(splitter, err)
	} else {
		c.redescendWOp(b, splitter, false)
	}
	b.wake(splitter, stepped)
	for _, op := range rest {
		op.cy = nil
		c.restartWOp(b, op)
		b.wake(op, stepped)
	}
	c.wLeft = rest[:0]
}

// settleWCycle completes the cycle's settled ops — ErrNotFound for a key
// the leaf did not hold — and releases the cycle.
func (c *Client) settleWCycle(b *wBatch, cy *wCycle, stepped *wOp) {
	for _, op := range cy.settled {
		op.cy = nil
		if op.notFound {
			op.err = ErrNotFound
		}
		op.state = swDone
		b.wake(op, stepped)
	}
	c.releaseWCycle(b, cy)
}

// stageWCells stages the entry cells of the changed slots in the
// client's write-batch lists as write-back ranges, in slot order, merging
// cells that exactly abut (and the repeats of a slot two keys of the
// cycle both wrote).
//
//chime:noalloc
func (c *Client) stageWCells(cy *wCycle, changed []int) {
	slices.Sort(changed)
	c.wAddrs, c.wBufs = c.wAddrs[:0], c.wBufs[:0]
	off, end := 0, 0 // the open range; empty before the first cell
	for _, i := range changed {
		cell := c.ix.leaf.entryCells[i]
		if end >= cell.Off {
			end = max(end, cell.End())
			continue
		}
		c.stageRange(cy, off, end)
		off, end = cell.Off, cell.End()
	}
	c.stageRange(cy, off, end)
}

// stageRange appends the image's bytes [off, end) to the write-batch
// lists, unless the range is empty.
//
//chime:noalloc
func (c *Client) stageRange(cy *wCycle, off, end int) {
	if end > off {
		// The lists have room for a range per slot and the unlock
		// (NewClient).
		n := len(c.wAddrs)
		c.wAddrs, c.wBufs = c.wAddrs[:n+1], c.wBufs[:n+1]
		c.wAddrs[n], c.wBufs[n] = cy.leaf.Add(uint64(off)), cy.img.buf[off:end]
	}
}

// unlock releases a node lock with a remote write of the free word; with
// the local slot held (local) it hands the lock to a waiting local
// contender instead, or frees the slot after the write.
func (c *Client) unlock(addr dmsim.GAddr, local bool) error {
	if local && c.cn.locks.ReleaseHandover(c.dc, addr.Pack(), 1) {
		return nil
	}
	if err := c.dc.Write(addr, unlocked[:]); err != nil {
		return err
	}
	if local {
		c.cn.locks.ReleaseRemote(c.dc, addr.Pack())
	}
	return nil
}

// unlocked is a released lock word, as a write's source buffer.
var unlocked [8]byte

// postWriteAndUnlock sends the staged ranges of the node at addr and
// releases its lock: one doorbell batch carries the ranges and the free
// lock word, unless the local slot is held (local) and a local contender
// waits — then the ranges go alone and the lock, still held remotely, is
// handed over, and h is nil.
func (c *Client) postWriteAndUnlock(addr dmsim.GAddr, local bool) (h *dmsim.Completion, err error) {
	if local && c.cn.locks.HasWaiters(addr.Pack()) {
		for i, a := range c.wAddrs {
			if err := c.dc.Write(a, c.wBufs[i]); err != nil {
				return nil, err
			}
		}
		if c.cn.locks.ReleaseHandover(c.dc, addr.Pack(), 1) {
			return nil, nil
		}
	}
	c.wAddrs, c.wBufs = append(c.wAddrs, addr), append(c.wBufs, unlocked[:])
	return c.dc.PostWriteBatch(c.wAddrs, c.wBufs)
}

// writeAndUnlock writes buf at off in the locked node and releases its
// lock (postWriteAndUnlock), waiting for the write.
func (c *Client) writeAndUnlock(addr dmsim.GAddr, off int, buf []byte, local bool) error {
	c.wAddrs, c.wBufs = append(c.wAddrs[:0], addr.Add(uint64(off))), append(c.wBufs[:0], buf)
	h, err := c.postWriteAndUnlock(addr, local)
	if h == nil {
		return err
	}
	c.reap(h)
	if local {
		c.cn.locks.ReleaseRemote(c.dc, addr.Pack())
	}
	return nil
}

// rearriveWOp re-enters the leaf layer at a sibling (B-link chase). The
// parent that routed the op here predates the split and leaves the
// cache. The op keeps its path: sibling leaves propagate splits through
// the same ancestors.
func (c *Client) rearriveWOp(b *wBatch, op *wOp, leaf dmsim.GAddr) {
	c.obs.SiblingChases.Inc()
	c.dropParent(op.d.parent)
	if op.d.hops++; op.d.hops > maxRetries {
		c.failWOp(op, fmt.Errorf("sherman: write(%#x): leaf chain too long", op.key))
		return
	}
	op.d.leaf = leaf
	c.arriveWAtLeaf(b, op)
}

// restartWOp retraverses one key after an optimistic conflict; the rest
// of a batch is untouched.
func (c *Client) restartWOp(b *wBatch, op *wOp) { c.redescendWOp(b, op, true) }

// redescendWOp walks the op from the root again: after a conflict, which
// noteRestart counts, or after the op split its leaf, which is none.
func (c *Client) redescendWOp(b *wBatch, op *wOp, conflict bool) {
	if op.restarts++; op.restarts > maxRetries {
		c.failWOp(op, fmt.Errorf("sherman: write(%#x): retries exhausted", op.key))
		return
	}
	op.d.release(c)
	if conflict {
		c.noteRestart()
	}
	c.beginWOp(b, op)
}

func (c *Client) failWOp(op *wOp, err error) {
	op.d.release(c)
	op.err = err
	op.state = swDone
}

// failWCycle fails every op of the cycle; locked says whether the leaf
// lock is held and must be released. A one-key write that fails before
// it holds the lock leaves its lock time and its local slot.
func (c *Client) failWCycle(b *wBatch, stepped *wOp, err error, locked bool) {
	cy := stepped.cy
	switch {
	case locked:
		c.unlock(cy.leaf, c.holdsSlot(cy))
	case cy.solo:
		c.dc.Flight().SetPhase(cy.phase)
		if c.holdsSlot(cy) {
			c.cn.locks.ReleaseRemote(c.dc, cy.leaf.Pack())
		}
	}
	if b != nil && b.cycles[cy.leaf.Pack()] == cy {
		delete(b.cycles, cy.leaf.Pack())
	}
	for _, op := range cy.ops {
		op.cy = nil
		c.failWOp(op, err)
		b.wake(op, stepped)
	}
	c.releaseWCycle(b, cy)
}

// releaseWCycle reaps any verb still in flight and hands a batch cycle
// back for reuse; it keeps its image.
func (c *Client) releaseWCycle(b *wBatch, cy *wCycle) {
	c.reap(cy.h)
	cy.h = nil
	cy.ops, cy.settled, cy.leader = cy.ops[:0], cy.settled[:0], nil
	if b != nil {
		b.cyFree.Put(cy)
	}
}
