package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"chime/internal/dmsim"
	"chime/internal/hopscotch"
	"chime/internal/obs"
	"chime/internal/offroute"
)

// The one leaf write engine of CHIME (§4.2.1, §4.4). A leaf is written in
// one way: lock it with a masked CAS that brings back the vacancy bitmap
// and argmax piggybacked on the lock word, read the hop range under the
// lock, place the key by hopscotch, and write the changed cells and the
// unlock word back in one doorbell batch. A write of one key is a writeOp
// stepped through exactly those verbs. Insert, Update, Delete and the
// variable-length-key API step the client's own op and cycle to
// completion, every step polling the verb the last one posted — a
// synchronous verb. InsertBatch and UpdateBatch keep up to depth ops in
// flight on the admit/step ring (offroute.Ring), so the round trips of
// different keys overlap on the virtual clock.
//
// Keys of a batch that resolve to the same leaf while its cycle collects
// (until its lock is held) share one lock/fetch/write round: the first
// arrival leads, later ones park on the cycle. A cycle of one op reads
// that op's narrow window and writes back like a one-key write; a cycle
// of several reads the whole node and derives the lock word from it.
//
// Same-CN contention between one-key writes is absorbed by the local lock
// table (Sherman's design, which CHIME inherits — §2.2): such a write
// takes the leaf's slot before its CAS, may receive the lock and its
// payload by local handover, and releases the way it acquired. A batch
// never touches the table — a blocking Acquire would stall the batch, and
// combining plays the handover's part — and under LeaseLocks nobody does:
// a handover would hand a waiter the holder's lease.

// writeOp states.
const (
	wpDescend    = iota + 1 // the descent's super-block or internal-node read
	wpLockWait              // the leaf lock CAS
	wpLockRead              // the lock word's own read (PiggybackVacancy off)
	wpRepairWait            // the whole-leaf read repairing a stolen lease's payload
	wpFetchWait             // the window or whole-leaf read under the lock
	wpMetaWait              // replica 0's own read after the window (ReplicateMeta off)
	wpWriteWait             // the changed ranges and the unlock, one doorbell batch
	wpJoined                // parked on another op's cycle
	wpDone
)

type writeKind uint8

const (
	writeUpsert writeKind = iota // insert-or-overwrite (YCSB insert/load)
	writeUpdate                  // overwrite-only, ErrNotFound when absent
	writeDelete                  // clear, ErrNotFound when absent
)

// spliceFn makes the bytes a one-key write stores from the entry's
// stored bytes (exists) or from nothing (a fresh placement). It runs
// under the leaf lock and may issue verbs; keep=false deletes the entry.
// The variable-length-key API splices its block chains with one (§4.5).
type spliceFn func(old []byte, exists bool) (val []byte, keep bool, err error)

// writeOp is one key's write.
type writeOp struct {
	kind   writeKind
	key    uint64
	val    []byte   // prepared value bytes (pointer block in indirect mode)
	splice spliceFn // one-key ops only; replaces val
	idx    int      // position in a batch's input and result slices

	state int
	d     descent // root→leaf; d.ref is the leaf the op writes to

	restarts, torn, casFails int

	cy       *writeCycle
	notFound bool // key absent; reported once the cycle commits
	err      error
}

// value is what op stores over old (exists) or in a fresh slot;
// keep=false deletes the entry: its splice's verdict, or its prepared
// value.
func (op *writeOp) value(old []byte, exists bool) (val []byte, keep bool, err error) {
	if op.splice != nil {
		return op.splice(old, exists)
	}
	return op.val, op.kind != writeDelete, nil
}

// reset readies the op for a new key, keeping its descent's path.
func (op *writeOp) reset(kind writeKind, key uint64, val []byte, splice spliceFn, idx int) {
	*op = writeOp{kind: kind, key: key, val: val, splice: splice, idx: idx, d: descent{path: op.d.path[:0]}}
}

// writeCycle is one lock/fetch/write round over a single leaf, shared by
// every batch key that resolved to that leaf while it was collecting:
// from its opening until its lock is held (writeBatch.cycles). Cycles of
// one batch overlap, so each owns the window its fetch fills.
type writeCycle struct {
	leaf   dmsim.GAddr
	leader *writeOp
	ops    []*writeOp

	// solo marks the cycle of a one-key write: its lock acquisition is
	// lock time in the flight ledger (phase is the phase it interrupted),
	// and outside lease mode it holds the leaf's local lock-table slot.
	// held says the acquisition is over: the leaf lock is the cycle's.
	solo, held bool
	phase      obs.Phase

	// single says the cycle fetched for one op: its window is that op's
	// and it writes back like a one-key write.
	single bool
	// merge says the cycle's delete may have emptied the leaf, which is
	// confirmed once the write completes (§4.4).
	merge bool

	lw      lockWord
	lockBuf [8]byte // the lock word's own read (PiggybackVacancy off)

	im *leafImage
	leafWindow
	h *dmsim.Completion

	// settled holds the ops whose outcome (success or ErrNotFound) commits
	// when the posted doorbell write+unlock completes.
	settled []*writeOp
}

// reset readies the cycle for a new leaf, keeping its buffers.
func (cy *writeCycle) reset(leaf dmsim.GAddr, leader *writeOp, solo bool) {
	*cy = writeCycle{leaf: leaf, leader: leader, ops: append(cy.ops[:0], leader), solo: solo,
		leafWindow: cy.leafWindow, settled: cy.settled[:0]}
}

// Insert adds or overwrites a key (upsert semantics, as YCSB inserts
// and loads expect).
func (c *Client) Insert(key uint64, value []byte) error {
	defer c.port.End(c.port.Begin(".insert", obs.OpInsert))
	val, err := c.prepareValue(key, value)
	if err != nil {
		return err
	}
	return c.writeOne(writeUpsert, key, val, nil)
}

// updateOneSided overwrites the value of an existing key with one-sided
// verbs only; the public Update (offload.go) routes between this and
// the MN-side offload program.
func (c *Client) updateOneSided(key uint64, value []byte) error {
	val, err := c.prepareValue(key, value)
	if err != nil {
		return err
	}
	return c.writeOne(writeUpdate, key, val, nil)
}

// Delete removes a key, returning ErrNotFound if it is absent. Per §4.4
// a delete clears the target entry the way an update writes it; a delete
// that may have emptied its leaf triggers a merge (merge.go).
func (c *Client) Delete(key uint64) error {
	defer c.port.End(c.port.Begin(".delete", obs.OpDelete))
	return c.writeOne(writeDelete, key, nil, nil)
}

// writeOne steps the client's own op through one key's write.
func (c *Client) writeOne(kind writeKind, key uint64, val []byte, splice spliceFn) error {
	op := &c.wop
	op.reset(kind, key, val, splice, 0)
	for c.beginWriteOp(nil, op); op.state != wpDone; {
		c.stepWriteOp(nil, op)
	}
	return op.err
}

// prepareValue returns the bytes stored in the leaf entry: the value
// itself, or a pointer to a freshly written KV block in indirect mode.
func (c *Client) prepareValue(key uint64, value []byte) ([]byte, error) {
	if !c.ix.opts.Indirect {
		if len(value) != c.ix.opts.ValueSize {
			return nil, fmt.Errorf("core: value is %dB, tree stores %dB", len(value), c.ix.opts.ValueSize)
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

// InsertBatch performs up to depth concurrent upserts (Insert semantics)
// on this client. Results are positionally aligned with keys; a nil
// error means the key is durably written.
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

// WriteCombineStats reports how many leaf write cycles the batch writer
// has executed on this client and how many batch keys were absorbed
// into an already-open cycle on the same leaf. A one-key write is not a
// combining cycle and is not counted.
func (c *Client) WriteCombineStats() (cycles, combinedKeys int64) {
	return c.wb.cyclesN, c.wb.combined
}

// writeBatch is a client's batch writer: the ring its ops run on, the
// cycles still collecting keys, by leaf, and the ops and cycles it reuses
// from batch to batch. A nil *writeBatch is a one-key write's.
type writeBatch struct {
	c      *Client
	ring   offroute.Ring[*writeOp]
	kind   writeKind
	keys   []uint64
	values [][]byte
	cycles map[uint64]*writeCycle
	opFree offroute.Free[writeOp]
	cyFree offroute.Free[writeCycle]

	// Leaf write cycles run and keys absorbed into an already-open cycle,
	// over the client's batches (per-leaf write combining).
	cyclesN, combined int64
}

func (c *Client) writeBatch(kind writeKind, keys []uint64, values [][]byte, depth int) []error {
	b := &c.wb
	if b.c == nil {
		*b = writeBatch{c: c, cycles: make(map[uint64]*writeCycle)}
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
func (b *writeBatch) Start(i int) *writeOp {
	c := b.c
	op := b.opFree.Get()
	op.reset(b.kind, b.keys[i], nil, nil, i)
	val, err := c.prepareValue(op.key, b.values[i])
	if err != nil {
		op.err, op.state = err, wpDone
		return op
	}
	op.val = val
	c.beginWriteOp(b, op)
	return op
}

func (b *writeBatch) Step(op *writeOp) { b.c.stepWriteOp(b, op) }

func (b *writeBatch) State(op *writeOp) offroute.OpState {
	switch op.state {
	case wpDone:
		return offroute.OpDone
	case wpJoined:
		return offroute.OpParked
	}
	return offroute.OpRunnable
}

func (b *writeBatch) Finish(op *writeOp) (int, error) {
	b.opFree.Put(op)
	return op.idx, op.err
}

// wake files op with the ring again; only a batch has other ops to wake.
func (b *writeBatch) wake(op, stepped *writeOp) {
	if b != nil && op != stepped {
		b.ring.Wake(op)
	}
}

// openCycle starts a cycle on leaf led by op, or reports the leaf's
// collecting cycle, which op joins.
func (c *Client) openCycle(b *writeBatch, op *writeOp, leaf dmsim.GAddr) (cy *writeCycle, joined bool) {
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

// holdsSlot says the cycle takes the leaf's local lock-table slot: a
// one-key write outside lease mode.
func (c *Client) holdsSlot(cy *writeCycle) bool { return cy.solo && !c.ix.opts.LeaseLocks }

// beginWriteOp (re)starts a key's traversal toward its leaf.
func (c *Client) beginWriteOp(b *writeBatch, op *writeOp) {
	op.cy = nil
	op.notFound = false
	c.writeDescended(b, op, op.d.begin(c, op.key))
}

// writeDescended acts on what the op's descent reported: at the leaf the
// op joins or opens a write cycle.
func (c *Client) writeDescended(b *writeBatch, op *writeOp, ds descentStatus) {
	switch ds {
	case descPosted:
		op.state = wpDescend
	case descArrived:
		c.arriveWriteAtLeaf(b, op)
	case descRestart:
		c.restartWriteOp(b, op)
	default:
		c.failWriteOp(op, op.d.err)
	}
}

// arriveWriteAtLeaf joins the leaf's collecting cycle, or opens a new
// one and locks the leaf. All time until a one-key write holds the lock
// — the local handover wait, CAS round trips, backoff, the word's own
// read, a lease steal's repair — is lock time in the flight ledger.
func (c *Client) arriveWriteAtLeaf(b *writeBatch, op *writeOp) {
	cy, joined := c.openCycle(b, op, op.d.ref.addr)
	op.cy = cy
	if joined {
		op.state = wpJoined
		return
	}
	if cy.solo {
		cy.phase = c.dc.Flight().SetPhase(obs.PhaseLockBackoff)
		if c.holdsSlot(cy) {
			if word, handover := c.cn.locks.Acquire(c.dc, cy.leaf.Pack()); handover {
				cy.lw = decodeLockWord(word)
				c.lockHeld(b, op)
				return
			}
		}
	}
	c.postCycleLock(b, op)
}

// postCycleLock posts the leaf lock's masked CAS (lockSwap).
func (c *Client) postCycleLock(b *writeBatch, op *writeOp) {
	word, mask := c.lockSwap(true)
	h, err := c.dc.PostMaskedCAS(leafLockAddr(op.cy.leaf), 0, word, lockBit, mask)
	if err != nil {
		c.failCycle(b, op, err, false)
		return
	}
	op.cy.h = h
	op.state = wpLockWait
}

// lockHeld ends a lock acquisition: the one-key write's lock time is
// over, and the cycle's membership freezes as it posts its fetch.
func (c *Client) lockHeld(b *writeBatch, drv *writeOp) {
	cy := drv.cy
	if cy.solo {
		c.dc.Flight().SetPhase(cy.phase)
	}
	cy.held = true
	if b != nil && b.cycles[cy.leaf.Pack()] == cy {
		delete(b.cycles, cy.leaf.Pack())
	}
	c.postCycleFetch(b, drv)
}

// postCycleFetch posts the read of the cycle's working set: a cycle of
// one op reads that op's narrow window (an update's or delete's
// neighborhood; an upsert's vacancy probe and argmax rider, unless every
// group of the leaf advertises full); a cycle of several reads the whole
// node.
func (c *Client) postCycleFetch(b *writeBatch, drv *writeOp) {
	cy := drv.cy
	lay := c.ix.leaf
	if cy.single = len(cy.ops) == 1; cy.single {
		op := cy.ops[0]
		home := lay.homeOf(op.key)
		count, argmax := lay.h, -1
		if op.kind == writeUpsert {
			count, argmax = c.probeCount(home, cy.lw.vacancy), cy.lw.argmaxSlot()
		}
		if count < lay.span || op.kind != writeUpsert {
			if cy.im == nil {
				cy.im = lay.getImage()
			}
			cy.setNarrow(lay, home, max(count, lay.h), argmax, c.ix.opts.ReplicateMeta)
			c.postCycleRanges(b, drv, wpFetchWait)
			return
		}
	}
	c.postCycleWhole(b, drv, wpFetchWait)
}

// postCycleWhole (re)posts a whole-node read into the cycle's image: a
// cycle of several ops, a window that could not prove a hop plan, or a
// stolen lease's repair (state).
func (c *Client) postCycleWhole(b *writeBatch, drv *writeOp, state int) {
	cy := drv.cy
	if cy.im == nil {
		cy.im = c.ix.leaf.getImage()
	}
	// A recycled buffer carries a stale lock line; the read below only
	// fills the cell region (split paths encode over the whole buffer).
	clear(cy.im.buf[:lineSize])
	cy.setWhole(c.ix.leaf)
	c.postCycleRanges(b, drv, state)
}

// postCycleRanges posts the cycle's recorded fetch geometry (first
// fetches and torn-read reposts share it); the replica read on its own,
// if any, follows once it completes.
func (c *Client) postCycleRanges(b *writeBatch, drv *writeOp, state int) {
	cy := drv.cy
	var err error
	if rs := cy.ranges[:cy.n]; len(rs) == 1 {
		cy.h, err = c.dc.PostRead(cy.leaf.Add(uint64(rs[0].Off)), cy.im.buf[rs[0].Off:rs[0].End])
	} else {
		c.db.stage(cy.leaf, cy.im, rs)
		cy.h, err = c.dc.PostReadBatch(c.db.addrs, c.db.bufs)
	}
	if err != nil {
		c.failCycle(b, drv, err, true)
		return
	}
	drv.state = state
}

// stepWriteOp polls the op's (or its cycle's) outstanding completion
// and advances the state machine.
func (c *Client) stepWriteOp(b *writeBatch, op *writeOp) {
	switch op.state {
	case wpDescend:
		c.writeDescended(b, op, op.d.step(c))

	case wpLockWait:
		cy := op.cy
		c.dc.Poll(cy.h)
		prev, ok := cy.h.CASResult()
		c.dc.Release(cy.h)
		cy.h = nil
		if !ok {
			held, err := c.lockLost(leafLockAddr(cy.leaf), prev)
			switch {
			case err != nil:
				c.failCycle(b, op, err, false)
			case held:
				c.postCycleWhole(b, op, wpRepairWait)
			default:
				c.obs.LockBackoffs.Inc()
				if op.casFails++; op.casFails > maxRetries {
					c.failCycle(b, op, fmt.Errorf("core: leaf %v: lock acquisition starved", cy.leaf), false)
					return
				}
				c.postCycleLock(b, op) // the cycle keeps collecting meanwhile
			}
			return
		}
		c.backoff.Reset()
		if !c.ix.opts.PiggybackVacancy {
			h, err := c.dc.PostRead(leafLockAddr(cy.leaf), cy.lockBuf[:])
			if err != nil {
				c.failCycle(b, op, err, true)
				return
			}
			cy.h, op.state = h, wpLockRead
			return
		}
		cy.lw = decodeLockWord(prev)
		c.lockHeld(b, op)

	case wpLockRead:
		cy := op.cy
		c.reap(cy.h)
		cy.h = nil
		cy.lw = decodeLockWord(binary.LittleEndian.Uint64(cy.lockBuf[:]))
		c.lockHeld(b, op)

	case wpFetchWait, wpMetaWait, wpRepairWait:
		cy := op.cy
		c.reap(cy.h)
		cy.h = nil
		if len(cy.ranges) > cy.n && op.state == wpFetchWait {
			rc := cy.ranges[cy.n]
			h, err := c.dc.PostRead(cy.leaf.Add(uint64(rc.Off)), cy.im.buf[rc.Off:rc.End])
			if err != nil {
				c.failCycle(b, op, err, true)
				return
			}
			cy.h, op.state = h, wpMetaWait
			return
		}
		// The lock is held, so tearing cannot happen; validate anyway for
		// defense in depth, as every leaf read does.
		if err := cy.im.checkRanges(cy.ranges); err != nil {
			c.obs.TornReads.Inc()
			if op.torn++; op.torn > maxRetries {
				c.failCycle(b, op, fmt.Errorf("core: leaf %v: torn-read retries exhausted", cy.leaf), true)
				return
			}
			c.backoff.Yield(c.dc)
			// The same read again; a replica read restarts at its window.
			c.postCycleRanges(b, op, min(op.state, wpFetchWait))
			return
		}
		if op.state == wpRepairWait {
			// The dead holder took the payload with it: recompute it from
			// the entries, exactly what a piggyback acquire delivers.
			cy.lw = recomputeLockWord(cy.im)
			c.backoff.Reset()
			c.lockHeld(b, op)
			return
		}
		c.applyCycle(b, op)

	case wpWriteWait:
		cy := op.cy
		c.reap(cy.h)
		cy.h = nil
		c.backoff.Reset()
		c.settleCycle(b, cy, op)

	default:
		c.failWriteOp(op, fmt.Errorf("core: write(%#x): step in state %d", op.key, op.state))
	}
}

// takes says whether the fetched leaf takes op. A deleted node sends
// every op back to the root, as does a stale cached parent (§4.2.3) or a
// moved fence under an upsert. An update or delete that finds its key
// writes it; one that does not and lies past the fence chases the right
// sibling (a restart could livelock against a parent that has not
// absorbed the split yet).
//
//chime:noalloc
func (cy *writeCycle) takes(lay *leafLayout, meta leafMeta, op *writeOp) bool {
	beyond := !meta.fenceInf && op.key >= meta.fenceHi
	switch {
	case !meta.valid:
		return false
	case op.kind == writeUpsert:
		ref := &op.d.ref
		return !beyond && !(ref.expectedKnown && meta.sibling != ref.expected && ref.parentFromCache)
	}
	return !beyond || meta.sibling.IsNil() || cy.findSlot(lay, op.key) >= 0
}

// applyCycle checks the fetched leaf for every op of the cycle and
// applies the ops it takes to the image, then posts ONE doorbell batch
// carrying all changed ranges plus the unlock word. The ops it does not
// take leave the cycle; when none stays, the leaf is unlocked before any
// of them moves on, as a one-key write must.
func (c *Client) applyCycle(b *writeBatch, stepped *writeOp) {
	cy := stepped.cy
	lay := c.ix.leaf
	meta := cy.im.meta(cy.metaG)
	left, pending := c.wLeft[:0], cy.ops[:0]
	for _, op := range cy.ops {
		if cy.takes(lay, meta, op) {
			pending = append(pending, op)
		} else {
			left = append(left, op)
		}
	}
	cy.ops = pending
	if len(pending) == 0 {
		c.unlockLeaf(cy.leaf, cy.lw, c.holdsSlot(cy))
		c.releaseCycle(b, cy)
	}
	for _, op := range left {
		op.cy = nil
		if meta.valid && op.kind != writeUpsert {
			c.rearriveWriteOp(b, op, meta.sibling)
		} else {
			c.invalidateRefParent(op.d.ref)
			c.restartWriteOp(b, op)
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

	c.changed = c.changed[:0]
	lw := cy.lw
	for pi, op := range pending {
		home := lay.homeOf(op.key)
		i := cy.findSlot(lay, op.key)
		if i < 0 && op.kind != writeUpsert {
			op.notFound = true
			cy.settled = append(cy.settled, op)
			continue
		}
		var old []byte
		var moves []hopscotch.Move
		free := i
		if i >= 0 {
			old = cy.im.entry(i).value
		} else {
			// Fresh placement: hop planning over the fetched occupancy;
			// unfetched slots are treated as occupied-and-immovable, which
			// is exact for every slot the plan may touch (see probeCount).
			var planErr error
			moves, free, planErr = hopscotch.AppendPlan(c.moves[:0], lay.span, lay.h, home,
				func(i int) bool { return !cy.fetched[i] || cy.im.entry(i).occupied },
				func(i int) int {
					if !cy.fetched[i] {
						return i
					}
					return lay.homeOf(cy.im.entry(i).key)
				},
			)
			if planErr != nil && !cy.full {
				// The window could not prove a feasible hop: fetch the whole
				// node and apply again with exact occupancy. Only a cycle of
				// one op reads a window, so nothing has been applied yet.
				drv := cy.leader
				c.postCycleWhole(b, drv, wpFetchWait)
				b.wake(drv, stepped)
				return
			}
			if planErr != nil { // genuinely no room: split the node
				c.splitCycle(b, cy, stepped, op, meta, lw, pending[pi+1:])
				return
			}
		}
		val, keep, err := op.value(old, i >= 0)
		if err != nil {
			c.failCycle(b, stepped, err, true)
			return
		}
		switch {
		case i < 0:
			c.moves = moves
			c.changed = cy.im.hopIn(c.changed, moves, free, home, op.key, val, true)
			if cy.single {
				// Lock-word bookkeeping (§4.2.1, §4.2.3): vacancy bit of the
				// filled slot's group, and the argmax index.
				lw.vacancy = c.updateVacancy(cy.im, cy.fetched, lw.vacancy, free)
				c.updateArgmaxOnInsert(&lw, cy.im, cy.fetched, free, op.key)
			}
		case keep:
			e := cy.im.entry(i)
			e.value = val
			cy.im.setEntry(i, e)
			c.changed = append(c.changed, i)
		default:
			c.changed = c.clearEntry(c.changed, cy.im, &lw, i, home)
			cy.merge = deleteLeftEmpty(cy.im, home, lw)
		}
		if op.kind == writeUpsert {
			c.placed.Note(0, op.key)
		}
		cy.settled = append(cy.settled, op)
	}

	if len(c.changed) == 0 {
		// Every op missed its key: nothing to write back.
		c.unlockLeaf(cy.leaf, lw, c.holdsSlot(cy))
		c.settleCycle(b, cy, stepped)
		return
	}
	changed := sortUnique(c.changed)
	var ranges []byteRange
	if cy.single {
		ranges = c.changedRanges(&c.wr, changed, lay.homeOf(pending[0].key))
	} else {
		// A node-granular write: derive the exact lock word from the image.
		lw = recomputeLockWord(cy.im)
		c.ranges = mergedCellRanges(c.ranges, lay, changed)
		ranges = c.ranges
	}
	h, err := c.postWriteAndUnlock(cy.leaf, cy.im, ranges, lw, c.holdsSlot(cy))
	switch {
	case err != nil:
		c.failCycle(b, stepped, err, true)
	case h == nil: // handed over
		c.settleCycle(b, cy, stepped)
	default:
		cy.h = h
		drv := cy.leader
		drv.state = wpWriteWait
		b.wake(drv, stepped)
	}
}

// clearEntry deletes entry i of the image, whose key is homed at home:
// the entry and its home bitmap bit, the vacancy bit of its group and an
// argmax naming it. It appends the changed entries to dst.
//
//chime:noalloc
func (c *Client) clearEntry(dst []int, im *leafImage, lw *lockWord, i, home int) []int {
	lay := im.lay
	e := im.entry(i)
	e.occupied = false
	im.setEntry(i, e)
	hEntry := im.entry(home)
	hEntry.hopBM &^= 1 << uint(((i-home)%lay.span+lay.span)%lay.span)
	im.setEntry(home, hEntry)
	lw.vacancy &^= 1 << uint(groupOf(i, lay.vacPerBit))
	if lw.argmaxValid && lw.argmax == i {
		lw.argmaxValid = false
	}
	dst = growInts(dst, 2)
	n := len(dst)
	dst = dst[:n+2]
	dst[n], dst[n+1] = i, home
	return dst
}

// splitCycle splits the cycle's full leaf for splitter. splitLeaf
// rewrites both halves from the image — committing every op already
// applied — and unlocks the leaf the way the cycle locked it. The applied
// ops complete; the splitter descends again, as after any split it
// makes, and the ops not yet applied restart.
func (c *Client) splitCycle(b *writeBatch, cy *writeCycle, stepped, splitter *writeOp, meta leafMeta, lw lockWord, rest []*writeOp) {
	err := c.splitLeaf(cy.leaf, splitter.d.path, cy.im, meta, lw, splitter.key, c.holdsSlot(cy))
	rest = append(c.wLeft[:0], rest...) // the cycle's lists go with it
	c.settleCycle(b, cy, stepped)
	splitter.cy = nil
	if err != nil {
		c.failWriteOp(splitter, err)
	} else {
		c.redescendWriteOp(b, splitter, false)
	}
	b.wake(splitter, stepped)
	for _, op := range rest {
		op.cy = nil
		c.restartWriteOp(b, op)
		b.wake(op, stepped)
	}
	c.wLeft = rest[:0]
}

// settleCycle completes the cycle's settled ops — ErrNotFound for a key
// the leaf did not hold — and releases the cycle; then a delete that may
// have emptied the leaf has it merged.
func (c *Client) settleCycle(b *writeBatch, cy *writeCycle, stepped *writeOp) {
	for _, op := range cy.settled {
		op.cy = nil
		if op.notFound {
			op.err = ErrNotFound
		}
		op.state = wpDone
		b.wake(op, stepped)
	}
	merge, leaf, key := cy.merge, cy.leaf, cy.leader.key
	c.releaseCycle(b, cy)
	if merge {
		c.maybeMergeLeaf(leaf, key)
	}
}

// findSlot locates key in its neighborhood, or -1. Every window a
// cycle reads covers the neighborhood of each of its ops.
//
//chime:noalloc
func (cy *writeCycle) findSlot(lay *leafLayout, key uint64) int {
	home := lay.homeOf(key)
	for d := 0; d < lay.h; d++ {
		i := (home + d) % lay.span
		if occupied, _, k := cy.im.slot(i); occupied && k == key {
			return i
		}
	}
	return -1
}

// rearriveWriteOp re-enters the leaf layer at a sibling (B-link chase).
// The parent that routed the op here predates the split and leaves the
// cache. The op keeps its path, which the sibling's splits propagate
// through.
func (c *Client) rearriveWriteOp(b *writeBatch, op *writeOp, leaf dmsim.GAddr) {
	c.obs.SiblingChases.Inc()
	op.d.dropParent(c)
	if op.d.hops++; op.d.hops > maxRetries {
		c.failWriteOp(op, fmt.Errorf("core: write(%#x): sibling chain too long", op.key))
		return
	}
	op.d.ref.addr, op.d.ref.expectedKnown = leaf, false
	c.arriveWriteAtLeaf(b, op)
}

// restartWriteOp retraverses one key after an optimistic conflict; the
// rest of a batch is untouched.
func (c *Client) restartWriteOp(b *writeBatch, op *writeOp) { c.redescendWriteOp(b, op, true) }

// redescendWriteOp walks the op from the root again: after a conflict,
// which noteRestart counts, or after the op split its leaf, which is
// none.
func (c *Client) redescendWriteOp(b *writeBatch, op *writeOp, conflict bool) {
	if op.restarts++; op.restarts > maxRetries {
		c.failWriteOp(op, fmt.Errorf("core: write(%#x): retries exhausted", op.key))
		return
	}
	op.d.release(c)
	if conflict {
		c.noteRestart()
	}
	c.beginWriteOp(b, op)
}

func (c *Client) failWriteOp(op *writeOp, err error) {
	op.err = err
	op.d.release(c) // cycle resources are cycle-owned
	op.state = wpDone
}

// failCycle fails every op of the cycle; locked says whether the leaf
// lock is held and must be released. A one-key write that fails before
// it holds the lock leaves its lock time and gives its local slot back.
func (c *Client) failCycle(b *writeBatch, stepped *writeOp, err error, locked bool) {
	cy := stepped.cy
	if cy.solo && !cy.held {
		c.dc.Flight().SetPhase(cy.phase)
	}
	switch {
	case locked:
		c.unlockLeaf(cy.leaf, cy.lw, c.holdsSlot(cy))
	case c.holdsSlot(cy):
		c.cn.locks.ReleaseRemote(c.dc, cy.leaf.Pack())
	}
	if b != nil && b.cycles[cy.leaf.Pack()] == cy {
		delete(b.cycles, cy.leaf.Pack())
	}
	for _, op := range cy.ops {
		op.cy = nil
		c.failWriteOp(op, err)
		b.wake(op, stepped)
	}
	c.releaseCycle(b, cy)
}

// releaseCycle reaps any verb still in flight, recycles the image and
// hands a batch cycle back for reuse.
func (c *Client) releaseCycle(b *writeBatch, cy *writeCycle) {
	c.reap(cy.h)
	cy.h = nil
	if cy.im != nil {
		c.ix.leaf.putImage(cy.im)
		cy.im = nil
	}
	cy.ops, cy.settled, cy.leader = cy.ops[:0], cy.settled[:0], nil
	if b != nil {
		b.cyFree.Put(cy)
	}
}

// lockBytes encodes lw into the client's lock-word buffer. Every verb
// copies its data at post time, so the next call may reuse the buffer.
//
//chime:noalloc
func (c *Client) lockBytes(lw lockWord) []byte {
	binary.LittleEndian.PutUint64(c.lockBuf[:], lw.encode())
	return c.lockBuf[:]
}

// unlockLeaf releases a leaf lock with a remote write of lw, the lock bit
// cleared; with the local slot held (local) it hands the lock and its
// payload to a waiting local contender instead — the remote word stays
// locked — or frees the slot after the write.
func (c *Client) unlockLeaf(leaf dmsim.GAddr, lw lockWord, local bool) error {
	if local {
		lw.locked = true
		if c.cn.locks.ReleaseHandover(c.dc, leaf.Pack(), lw.encode()) {
			return nil
		}
	}
	lw.locked = false
	if err := c.dc.Write(leafLockAddr(leaf), c.lockBytes(lw)); err != nil {
		return err
	}
	if local {
		c.cn.locks.ReleaseRemote(c.dc, leaf.Pack())
	}
	return nil
}

// postWriteAndUnlock posts the changed image ranges with the unlock word
// — lw, the lock bit cleared — as ONE doorbell batch, the combined WRITE
// CHIME borrows from Sherman, and returns the completion without polling:
// a single round trip whose latency pipelined callers overlap with other
// keys' work. dmsim moves data at post time, so the lock is observably
// released the moment this returns, and a held local slot (local) is
// freed here too. When the slot is held and a local contender waits, the
// ranges go alone and the lock, still held remotely, is handed over: h
// is nil then.
func (c *Client) postWriteAndUnlock(leaf dmsim.GAddr, im *leafImage, ranges []byteRange, lw lockWord, local bool) (h *dmsim.Completion, err error) {
	c.db.stage(leaf, im, ranges)
	if local && c.cn.locks.HasWaiters(leaf.Pack()) {
		if err := c.dc.WriteBatch(c.db.addrs, c.db.bufs); err != nil {
			return nil, err
		}
		return nil, c.unlockLeaf(leaf, lw, true)
	}
	lw.locked = false
	c.db.add(leafLockAddr(leaf), c.lockBytes(lw))
	if h, err = c.dc.PostWriteBatch(c.db.addrs, c.db.bufs); err == nil && local {
		c.cn.locks.ReleaseRemote(c.dc, leaf.Pack())
	}
	return h, err
}

// doorbell stages the addresses and buffers of one doorbell batch. A
// verb copies both at post time and keeps neither, so one per client
// serves every batch it posts.
type doorbell struct {
	addrs []dmsim.GAddr
	bufs  [][]byte
}

//chime:noalloc
func (d *doorbell) add(a dmsim.GAddr, b []byte) {
	//lint:allow noalloc doorbell scratch retains capacity after warm-up
	d.addrs, d.bufs = append(d.addrs, a), append(d.bufs, b)
}

// stage restarts the batch with the non-empty ranges of a leaf image.
//
//chime:noalloc
func (d *doorbell) stage(leaf dmsim.GAddr, im *leafImage, ranges []byteRange) {
	d.addrs, d.bufs = d.addrs[:0], d.bufs[:0]
	for _, r := range ranges {
		if r.size() > 0 {
			d.add(leaf.Add(uint64(r.Off)), im.buf[r.Off:r.End])
		}
	}
}

// invalidateRefParent drops the cached parent a leafRef was resolved
// through; stale parents must leave the cache or they re-route every
// retry to the same outdated leaf.
func (c *Client) invalidateRefParent(ref leafRef) {
	if ref.parentFromCache && !ref.parentAddr.IsNil() {
		c.cn.cache.Drop(ref.parentAddr)
	}
}

// leafWindow is the fetch geometry of one leaf write: the byte ranges
// read and version-checked together, and the entries they cover. Its
// slices are scratch that the next window laid out in it reuses.
type leafWindow struct {
	// ranges are what the version check covers. The first n are read in
	// one doorbell batch; one more past them is replica 0, read on its own
	// once the batch is in (the ReplicateMeta ablation, or a window holding
	// no replica).
	ranges  []byteRange
	n       int
	metaG   int    // the replica group meta decodes
	full    bool   // the whole leaf: every entry fetched
	fetched []bool // per entry
}

// setNarrow lays out the window of entries [home, home+count)
// circularly (count < span), extended to a metadata replica, plus the
// cell of entry argmax when argmax >= 0 names one outside it: the
// argmax entry rides in the same doorbell batch (§4.2.3).
//
//chime:noalloc
func (w *leafWindow) setNarrow(lay *leafLayout, home, count, argmax int, replicateMeta bool) {
	w.full = false
	w.fetched = resetMask(w.fetched, lay.span, false)
	for d := 0; d < count; d++ {
		w.fetched[(home+d)%lay.span] = true
	}
	w.ranges = lay.neighborhoodSegments(w.ranges[:0], home, count, replicateMeta)
	w.metaG = lay.metaInRanges(w.ranges)
	var extra [2]byteRange
	k := 0
	if argmax >= 0 && argmax < lay.span && !w.fetched[argmax] {
		cellC := lay.entryCells[argmax]
		extra[k] = byteRange{Off: cellC.Off, End: cellC.End()}
		k++
		w.fetched[argmax] = true
	}
	w.n = len(w.ranges) + k
	if !replicateMeta || w.metaG < 0 {
		rc := lay.replicaCells[0]
		extra[k] = byteRange{Off: rc.Off, End: rc.End()}
		k++
		w.metaG = 0
	}
	//lint:allow noalloc window scratch retains capacity after warm-up
	w.ranges = append(w.ranges, extra[:k]...)
}

// setWhole lays out a whole-leaf read: every cell past the lock line.
func (w *leafWindow) setWhole(lay *leafLayout) {
	w.full = true
	w.ranges = append(w.ranges[:0], byteRange{Off: lineSize, End: lay.size})
	w.n = 1
	w.metaG = 0
	w.fetched = resetMask(w.fetched, lay.span, true)
}

// resetMask returns mask resized to n entries, each set to v.
//
//chime:coldalloc grows once to a leaf's span, then is reused
func resetMask(mask []bool, n int, v bool) []bool {
	if cap(mask) < n {
		mask = make([]bool, n)
	}
	mask = mask[:n]
	if !v {
		clear(mask)
		return mask
	}
	for i := range mask {
		mask[i] = true
	}
	return mask
}

// argmaxSlot is the argmax entry a window fetches along, or -1.
func (lw lockWord) argmaxSlot() int {
	if lw.argmaxValid {
		return lw.argmax
	}
	return -1
}

// probeCount returns how many entries past home an insert window must
// fetch so that the first truly-empty slot (per the vacancy bitmap) is
// covered, or span when every group advertises full: the neighborhood of
// home extended through the first vacancy-bitmap group that may contain
// an empty slot.
func (c *Client) probeCount(home int, vacancy uint64) int {
	lay := c.ix.leaf
	groups, perBit := lay.vacGroups, lay.vacPerBit
	g := groupOf(home, perBit)
	for step := 0; step < groups; step++ {
		gg := (g + step) % groups
		if vacancy&(1<<uint(gg)) == 0 {
			if step == 0 && perBit > 1 {
				// The home group's free slot may precede home; make the
				// window also cover the next group so the probe usually
				// still lands inside the fetch (whole-node fallback
				// otherwise).
				gg = (gg + 1) % groups
			}
			_, hi := groupRange(gg, perBit, lay.span)
			return min(((hi-1-home+lay.span)%lay.span)+1, lay.span)
		}
	}
	return lay.span
}

// fetchWholeLeaf reads the complete leaf image (scans, merges) and
// returns it with its metadata replica group.
func (c *Client) fetchWholeLeaf(leaf dmsim.GAddr) (*leafImage, int, error) {
	lay := c.ix.leaf
	im := lay.getImage()
	// A recycled buffer carries a stale lock line; the read below only
	// fills the cell region, so clear the first line to match a fresh
	// image (split paths encode over the whole buffer).
	clear(im.buf[:lineSize])
	for try := 0; try < maxRetries; try++ {
		if err := c.dc.Read(leaf.Add(lineSize), im.buf[lineSize:]); err != nil {
			lay.putImage(im)
			return nil, 0, err
		}
		if err := checkVersions(im.buf, 0, lay.allCells); err != nil {
			c.obs.TornReads.Inc()
			c.backoff.Yield(c.dc)
			continue
		}
		return im, 0, nil
	}
	lay.putImage(im)
	return nil, 0, fmt.Errorf("core: leaf %v: whole-node read retries exhausted", leaf)
}

// hopIn executes a hop plan on the image and puts (key, val) in the
// freed slot: each moved key's cell, the bitmap of the moved key's home
// entry, the new cell and its home's bitmap. bump says the modified
// entries' versions move (a write to a live leaf: readers detect the
// intermediate states via the reused-hopscotch-bitmap check, §4.1.2) or
// not (a node built whole). It appends the modified entries to dst, a
// moved key's home and the free slot's home possibly twice.
//
//chime:noalloc
func (im *leafImage) hopIn(dst []int, moves []hopscotch.Move, free, home int, key uint64, val []byte, bump bool) []int {
	lay := im.lay
	dst = growInts(dst, 3*len(moves)+2)
	for _, m := range moves {
		e := im.entry(m.From)
		kHome := lay.homeOf(e.key)

		// Relocate the key: clear source, fill target.
		target := im.entry(m.To)
		target.occupied, target.key, target.value = true, e.key, e.value
		im.putEntry(m.To, target, bump)
		src := im.entry(m.From)
		src.occupied = false
		im.putEntry(m.From, src, bump)

		// Update the hopscotch bitmap in the key's home entry.
		hEntry := im.entry(kHome)
		hEntry.hopBM &^= 1 << uint(((m.From-kHome)%lay.span+lay.span)%lay.span)
		hEntry.hopBM |= 1 << uint(((m.To-kHome)%lay.span+lay.span)%lay.span)
		im.putEntry(kHome, hEntry, bump)

		n := len(dst)
		dst = dst[:n+3]
		dst[n], dst[n+1], dst[n+2] = m.From, m.To, kHome
	}
	e := im.entry(free)
	e.occupied, e.key, e.value = true, key, val
	im.putEntry(free, e, bump)
	hEntry := im.entry(home)
	hEntry.hopBM |= 1 << uint(((free-home)%lay.span+lay.span)%lay.span)
	im.putEntry(home, hEntry, bump)
	n := len(dst)
	dst = dst[:n+2]
	dst[n], dst[n+1] = free, home
	return dst
}

// putEntry writes entry i, moving its version only when bump says so.
//
//chime:noalloc
func (im *leafImage) putEntry(i int, e leafEntry, bump bool) {
	im.setEntryNoBump(i, e)
	if bump {
		bumpEV(im.buf, im.lay.entryCells[i])
	}
}

// sortUnique sorts s and drops its repeats, in place.
//
//chime:noalloc
func sortUnique(s []int) []int {
	slices.Sort(s)
	n := 0
	for _, v := range s {
		if n == 0 || v != s[n-1] {
			s[n] = v
			n++
		}
	}
	return s[:n]
}

// growInts returns s with room for n more elements.
//
//chime:coldalloc grows to the largest changed set a cycle makes, then is reused
func growInts(s []int, n int) []int { return slices.Grow(s, n) }

// changedRanges converts sorted modified entry indexes into 1–2
// contiguous write-back byte ranges, laid out in dst. The fetched window
// is circularly contiguous starting at home, so indexes >= home belong
// to the window's first (high) segment and indexes < home to its
// wrapped (low) segment; splitting there guarantees every byte written
// back — including untouched cells between changed ones — was fetched.
// Safe under the node lock.
//
//chime:noalloc
func (c *Client) changedRanges(dst *[2]byteRange, changed []int, home int) []byteRange {
	cells := c.ix.leaf.entryCells
	k := 0 // changed[:k] is the low part, changed[k:] the high one
	for k < len(changed) && changed[k] < home {
		k++
	}
	n := 0
	if k < len(changed) {
		dst[n] = byteRange{Off: cells[changed[k]].Off, End: cells[changed[len(changed)-1]].End()}
		n++
	}
	if k > 0 {
		dst[n] = byteRange{Off: cells[changed[0]].Off, End: cells[changed[k-1]].End()}
		n++
	}
	return dst[:n]
}

// mergedCellRanges converts sorted changed slots into write-back ranges,
// laid out in dst's storage, merging exactly-abutting cells. Unlike
// changedRanges it never spans untouched cells — a cycle of several ops
// may dirty non-contiguous slots.
//
//chime:noalloc
func mergedCellRanges(dst []byteRange, lay *leafLayout, changed []int) []byteRange {
	out := growRanges(dst[:0], len(changed))
	for _, i := range changed {
		cell := lay.entryCells[i]
		if n := len(out); n > 0 && out[n-1].End >= cell.Off {
			out[n-1].End = max(out[n-1].End, cell.End())
		} else {
			out = out[:n+1]
			out[n] = byteRange{Off: cell.Off, End: cell.End()}
		}
	}
	return out
}

// growRanges returns s with room for n more elements.
//
//chime:coldalloc grows to the largest changed set a cycle makes, then is reused
func growRanges(s []byteRange, n int) []byteRange { return slices.Grow(s, n) }

// updateVacancy recomputes the vacancy bit of the group containing the
// filled slot. A bit is set ("full") only when the writer can prove
// every entry of the group is occupied from fetched data; otherwise it
// stays conservative at 0.
//
//chime:noalloc
func (c *Client) updateVacancy(im *leafImage, fetched []bool, vacancy uint64, filled int) uint64 {
	lay := c.ix.leaf
	g := groupOf(filled, lay.vacPerBit)
	lo, hi := groupRange(g, lay.vacPerBit, lay.span)
	for i := lo; i < hi; i++ {
		if !fetched[i] || !im.entry(i).occupied {
			return vacancy &^ (1 << uint(g))
		}
	}
	return vacancy | (1 << uint(g))
}

// updateArgmaxOnInsert maintains the argmax-of-keys field (§4.2.3).
//
//chime:noalloc
func (c *Client) updateArgmaxOnInsert(lw *lockWord, im *leafImage, fetched []bool, slot int, key uint64) {
	if !lw.argmaxValid {
		return // recomputed at the next node write
	}
	if lw.argmax >= c.ix.leaf.span || !fetched[lw.argmax] {
		lw.argmaxValid = false
		return
	}
	cur := im.entry(lw.argmax)
	if !cur.occupied {
		// The tracked max was removed without invalidation (shouldn't
		// happen, but stay safe).
		lw.argmaxValid = false
		return
	}
	if key > cur.key {
		lw.argmax = slot
	}
}
