package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"chime/internal/dmsim"
	"chime/internal/hopscotch"
	"chime/internal/offroute"
)

// Pipelined batch writes (async verb pipelining, write side). InsertBatch
// and UpdateBatch drive up to `depth` writes through the tree at once on
// ONE client, mirroring SearchBatch: each key is a state machine whose
// remote verbs are posted, so the lock CAS, window fetch, and doorbell
// write+unlock of different keys overlap on the virtual clock.
//
// On top of per-key pipelining, keys that resolve to the same leaf are
// COMBINED into one write cycle: the first arrival becomes the cycle
// leader and posts the lock CAS; later arrivals park on the cycle and
// ride its single lock/fetch/write round trips. A cycle keeps collecting
// until its fetch is posted — CAS conflict retries therefore widen the
// combining window exactly when the leaf is contended, which is when
// combining pays most. Multi-key cycles always fetch the whole node
// (exact occupancy for several hop plans); singleton cycles keep the
// narrow insert/update window geometry of the synchronous path.
//
// The batch path intentionally bypasses the local lock table: its
// blocking Acquire would stall every other key in the batch. The posted
// CAS retry loop is always correct against lock-table holders on this or
// any other compute node — the remote word is the ground truth — and
// per-leaf combining already serves the role local handover plays for
// same-CN contention. Restart handling is per key: a stale ref, moved
// fence, or split restarts only the key(s) involved, never the batch.

// writeOp states.
const (
	wpDescend = iota + 1 // the descent's super-block or internal-node read
	wpLockWait
	wpLockRead
	wpFetchWait
	wpWriteWait
	wpJoined
	wpDone
)

type writeKind int

const (
	writeUpsert writeKind = iota // insert-or-overwrite (YCSB insert/load)
	writeUpdate                  // overwrite-only, ErrNotFound when absent
)

// writeOp is one in-flight key of an InsertBatch/UpdateBatch.
type writeOp struct {
	kind writeKind
	key  uint64
	val  []byte // prepared value bytes (pointer block in indirect mode)
	idx  int    // position in the input / result slices

	state int
	d     descent // root→leaf; d.ref is the leaf the op writes to

	restarts, torn, casFails int

	cy       *writeCycle
	notFound bool // update key absent; reported once the cycle commits

	err error
}

// writeCycle is one lock/fetch/write round over a single leaf, shared by
// every batch key that resolved to that leaf while it was collecting.
// Cycles of one batch overlap, so each owns the window its fetch fills.
type writeCycle struct {
	leaf       dmsim.GAddr
	leader     *writeOp
	ops        []*writeOp
	collecting bool

	lw      lockWord
	lockBuf [8]byte // dedicated word read (PiggybackVacancy off)

	im *leafImage
	leafWindow
	h, h2 *dmsim.Completion

	// settled holds the ops whose outcome (success or ErrNotFound) commits
	// when the posted doorbell write+unlock completes.
	settled []*writeOp
}

// wpSched is a client's batch writer: the ring its ops run on and the
// batch being run.
type wpSched struct {
	c      *Client
	ring   offroute.Ring[*writeOp]
	kind   writeKind
	keys   []uint64
	values [][]byte

	// cycles maps packed leaf address -> the currently collecting cycle.
	cycles map[uint64]*writeCycle

	// Leaf write cycles run and keys absorbed into an already-open cycle,
	// over the client's batches (per-leaf write combining).
	cyclesN, combined int64
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

// WriteCombineStats reports how many leaf write cycles the batch write
// pipeline has executed on this client and how many batch keys were
// absorbed into an already-open cycle on the same leaf.
func (c *Client) WriteCombineStats() (cycles, combinedKeys int64) {
	return c.wps.cyclesN, c.wps.combined
}

func (c *Client) writeBatch(kind writeKind, keys []uint64, values [][]byte, depth int) []error {
	st := &c.wps
	if st.c == nil {
		*st = wpSched{c: c, cycles: make(map[uint64]*writeCycle)}
	}
	st.kind, st.keys, st.values = kind, keys, values
	cycles, combined := st.cyclesN, st.combined
	errs := st.ring.Write(&c.port, len(keys), len(values), depth, st)
	st.keys, st.values = nil, nil
	c.obs.WCCycles.Add(st.cyclesN - cycles)
	c.obs.WCCombined.Add(st.combined - combined)
	return errs
}

// Start admits key i: its op, prepared and begun.
func (st *wpSched) Start(i int) *writeOp {
	c := st.c
	op := &writeOp{kind: st.kind, key: st.keys[i], idx: i}
	val, err := c.prepareValue(op.key, st.values[i])
	if err != nil {
		op.err, op.state = err, wpDone
		return op
	}
	op.val = val
	c.beginWriteOp(st, op)
	return op
}

func (st *wpSched) Step(op *writeOp) { st.c.stepWriteOp(st, op) }

func (st *wpSched) State(op *writeOp) offroute.OpState {
	switch op.state {
	case wpDone:
		return offroute.OpDone
	case wpJoined:
		return offroute.OpParked
	}
	return offroute.OpRunnable
}

func (st *wpSched) Finish(op *writeOp) (int, error) { return op.idx, op.err }

// beginWriteOp (re)starts a key's traversal toward its leaf.
func (c *Client) beginWriteOp(st *wpSched, op *writeOp) {
	op.cy = nil
	op.notFound = false
	c.writeDescended(st, op, op.d.begin(c, op.key))
}

// writeDescended acts on what the op's descent reported: at the leaf the
// op joins or opens a write cycle.
func (c *Client) writeDescended(st *wpSched, op *writeOp, ds descentStatus) {
	switch ds {
	case descPosted:
		op.state = wpDescend
	case descArrived:
		c.arriveWriteAtLeaf(st, op)
	case descRestart:
		c.restartWriteOp(st, op)
	default:
		c.failWriteOp(op, op.d.err)
	}
}

// arriveWriteAtLeaf joins the leaf's collecting cycle, or opens a new
// one and posts its lock CAS.
func (c *Client) arriveWriteAtLeaf(st *wpSched, op *writeOp) {
	k := op.d.ref.addr.Pack()
	if cy, ok := st.cycles[k]; ok && cy.collecting {
		op.cy = cy
		cy.ops = append(cy.ops, op)
		op.state = wpJoined
		st.combined++
		return
	}
	cy := &writeCycle{leaf: op.d.ref.addr, leader: op, ops: []*writeOp{op}, collecting: true}
	st.cycles[k] = cy
	st.cyclesN++
	op.cy = cy
	c.postCycleLock(st, op)
}

// postCycleLock posts the leaf lock masked CAS (the §4.2.1 piggyback
// variant swaps the whole word so the previous vacancy/argmax payload
// arrives with the lock; the ablation keeps a dedicated word read).
func (c *Client) postCycleLock(st *wpSched, op *writeOp) {
	cy := op.cy
	addr := leafLockAddr(cy.leaf)
	var h *dmsim.Completion
	var err error
	if c.ix.opts.LeaseLocks {
		h, err = c.dc.PostMaskedCAS(addr, 0, c.lockSwapWord(), lockBit, ^uint64(0))
	} else if c.ix.opts.PiggybackVacancy {
		h, err = c.dc.PostMaskedCAS(addr, 0, lockBit, lockBit, ^uint64(0))
	} else {
		h, err = c.dc.PostMaskedCAS(addr, 0, lockBit, lockBit, lockBit)
	}
	if err != nil {
		c.failCycle(st, op, err, false)
		return
	}
	cy.h = h
	op.state = wpLockWait
}

// stepWriteOp polls the op's (or its cycle's) outstanding completions
// and advances the state machine.
func (c *Client) stepWriteOp(st *wpSched, op *writeOp) {
	switch op.state {
	case wpDescend:
		c.writeDescended(st, op, op.d.step(c))

	case wpLockWait:
		cy := op.cy
		c.dc.Poll(cy.h)
		prev, ok := cy.h.CASResult()
		c.dc.Release(cy.h)
		cy.h = nil
		if !ok {
			if c.ix.opts.LeaseLocks {
				// Synchronous steal attempt: rare (only after a crash),
				// so dropping out of the pipeline for it is fine.
				lw, stolen, serr := c.tryStealLeafLease(cy.leaf, prev)
				if serr != nil {
					c.failCycle(st, op, serr, false)
					return
				}
				if stolen {
					c.backoff.Reset()
					cy.lw = lw
					c.postCycleFetch(st, op)
					return
				}
			}
			op.casFails++
			if op.casFails > maxRetries {
				c.failCycle(st, op, fmt.Errorf("core: leaf %v: lock acquisition starved", cy.leaf), false)
				return
			}
			c.obs.LockBackoffs.Inc()
			c.backoff.Yield(c.dc)
			c.postCycleLock(st, op) // the cycle keeps collecting meanwhile
			return
		}
		c.backoff.Reset()
		if c.ix.opts.PiggybackVacancy {
			cy.lw = decodeLockWord(prev)
			c.postCycleFetch(st, op)
			return
		}
		h, err := c.dc.PostRead(leafLockAddr(cy.leaf), cy.lockBuf[:])
		if err != nil {
			c.failCycle(st, op, err, true)
			return
		}
		cy.h = h
		op.state = wpLockRead

	case wpLockRead:
		cy := op.cy
		c.reap(cy.h)
		cy.h = nil
		cy.lw = decodeLockWord(binary.LittleEndian.Uint64(cy.lockBuf[:]))
		c.postCycleFetch(st, op)

	case wpFetchWait:
		cy := op.cy
		c.reap(cy.h)
		c.reap(cy.h2)
		cy.h, cy.h2 = nil, nil
		// The lock is held, so tearing cannot happen; validate anyway for
		// defense in depth (mirrors the sync path).
		if err := cy.im.checkRanges(cy.ranges); err != nil {
			c.obs.TornReads.Inc()
			op.torn++
			if op.torn > maxRetries {
				c.failCycle(st, op, fmt.Errorf("core: leaf %v: torn-read retries exhausted", cy.leaf), true)
				return
			}
			c.backoff.Yield(c.dc)
			c.postCycleRanges(st, op)
			return
		}
		c.applyCycle(st, op)

	case wpWriteWait:
		cy := op.cy
		c.reap(cy.h)
		cy.h = nil
		c.backoff.Reset()
		for _, d := range cy.settled {
			d.cy = nil
			if d.notFound {
				d.err = ErrNotFound
			}
			d.state = wpDone
			if d != op {
				st.ring.Wake(d)
			}
		}
		c.releaseCycle(cy)

	default:
		c.failWriteOp(op, fmt.Errorf("core: write batch: step in state %d", op.state))
	}
}

// postCycleFetch freezes the cycle's membership and posts the read(s) of
// its working set: singleton cycles keep the synchronous path's narrow
// window geometry (insert window with vacancy probe + argmax rider for
// upserts, neighborhood window for updates); multi-key cycles read the
// whole node so several hop plans share exact occupancy.
func (c *Client) postCycleFetch(st *wpSched, drv *writeOp) {
	cy := drv.cy
	lay := c.ix.leaf
	cy.collecting = false
	if cur, ok := st.cycles[cy.leaf.Pack()]; ok && cur == cy {
		delete(st.cycles, cy.leaf.Pack())
	}
	if len(cy.ops) == 1 {
		op := cy.ops[0]
		home := lay.homeOf(op.key)
		count, argmax := lay.h, -1
		if op.kind == writeUpsert {
			count = max(c.probeCount(home, cy.lw.vacancy), lay.h)
			argmax = cy.lw.argmaxSlot()
		}
		if count < lay.span {
			if cy.im == nil {
				cy.im = lay.getImage()
			}
			cy.setNarrow(lay, home, count, argmax, c.ix.opts.ReplicateMeta)
			c.postCycleRanges(st, drv)
			return
		}
	}
	c.postCycleWholeFetch(st, drv)
}

// postCycleWholeFetch (re)posts a whole-node read into the cycle's
// image; also the escalation path when a window cannot prove a hop plan.
func (c *Client) postCycleWholeFetch(st *wpSched, drv *writeOp) {
	cy := drv.cy
	lay := c.ix.leaf
	if cy.im == nil {
		cy.im = lay.getImage()
	}
	// A recycled buffer carries a stale lock line; the read below only
	// fills the cell region (split paths encode over the whole buffer).
	for i := range cy.im.buf[:lineSize] {
		cy.im.buf[i] = 0
	}
	cy.setWhole(lay)
	c.postCycleRanges(st, drv)
}

// postCycleRanges posts the cycle's recorded fetch geometry (initial
// fetch and torn-read reposts share it).
func (c *Client) postCycleRanges(st *wpSched, drv *writeOp) {
	cy := drv.cy
	var err error
	if b := cy.batch(); len(b) == 1 {
		cy.h, err = c.dc.PostRead(cy.leaf.Add(uint64(b[0].Off)), cy.im.buf[b[0].Off:b[0].End])
	} else {
		c.db.stage(cy.leaf, cy.im, b)
		cy.h, err = c.dc.PostReadBatch(c.db.addrs, c.db.bufs)
	}
	if rc, ok := cy.metaRead(); err == nil && ok {
		cy.h2, err = c.dc.PostRead(cy.leaf.Add(uint64(rc.Off)), cy.im.buf[rc.Off:rc.End])
	}
	if err != nil {
		c.failCycle(st, drv, err, true)
		return
	}
	drv.state = wpFetchWait
}

// applyCycle validates and mutates the fetched image for every op of the
// cycle, then posts ONE doorbell batch carrying all changed ranges plus
// the cleared lock word. Per-key conflicts (stale refs, moved fences)
// peel only the affected ops off the cycle.
func (c *Client) applyCycle(st *wpSched, stepped *writeOp) {
	cy := stepped.cy
	lay := c.ix.leaf
	meta := cy.im.meta(cy.metaG)

	leave := func(op *writeOp, f func(*writeOp)) {
		op.cy = nil
		f(op)
		if op != stepped {
			st.ring.Wake(op)
		}
	}

	if !meta.valid {
		// The node vanished under us (merge): release and restart all.
		c.unlockLeaf(cy.leaf, cy.lw)
		for _, op := range cy.ops {
			leave(op, func(op *writeOp) {
				c.invalidateRefParent(op.d.ref)
				c.restartWriteOp(st, op)
			})
		}
		c.releaseCycle(cy)
		return
	}

	pending := make([]*writeOp, 0, len(cy.ops))
	for _, op := range cy.ops {
		if op.d.ref.expectedKnown && meta.sibling != op.d.ref.expected && op.d.ref.parentFromCache {
			// Cache validation (§4.2.3): the cached parent predates a split.
			leave(op, func(op *writeOp) {
				c.invalidateRefParent(op.d.ref)
				c.restartWriteOp(st, op)
			})
			continue
		}
		if !meta.fenceInf && op.key >= meta.fenceHi {
			if op.kind == writeUpdate && !meta.sibling.IsNil() {
				// Half-split: the key may live in a right sibling. Chase it
				// (a restart could livelock against a parent that simply
				// has not absorbed the split yet).
				sib := meta.sibling
				leave(op, func(op *writeOp) { c.rearriveWriteOp(st, op, sib) })
			} else {
				leave(op, func(op *writeOp) {
					c.invalidateRefParent(op.d.ref)
					c.restartWriteOp(st, op)
				})
			}
			continue
		}
		pending = append(pending, op)
	}
	cy.ops = pending

	if len(pending) == 0 {
		// Everyone left; just release the lock (rare — sync is fine).
		c.unlockLeaf(cy.leaf, cy.lw)
		c.releaseCycle(cy)
		return
	}
	if !slices.Contains(pending, cy.leader) {
		cy.leader = pending[0]
	}

	var changed []int
	newLW := cy.lw
	var done []*writeOp
	for pi, op := range pending {
		if i := cy.findSlot(lay, op.key); i >= 0 {
			e := cy.im.entry(i)
			e.value = op.val
			cy.im.setEntry(i, e)
			changed = append(changed, i)
			done = append(done, op)
			if op.kind == writeUpsert {
				c.placed.Note(0, op.key)
			}
			continue
		}
		if op.kind == writeUpdate {
			op.notFound = true
			done = append(done, op)
			continue
		}
		// Fresh placement: hop planning over the fetched occupancy;
		// unfetched slots are occupied-and-immovable (window cycles only).
		home := lay.homeOf(op.key)
		moves, free, planErr := hopscotch.AppendPlan(c.moves[:0], lay.span, lay.h, home,
			func(i int) bool {
				if !cy.fetched[i] {
					return true
				}
				return cy.im.entry(i).occupied
			},
			func(i int) int {
				if !cy.fetched[i] {
					return i
				}
				return lay.homeOf(cy.im.entry(i).key)
			},
		)
		if planErr != nil && !cy.full {
			// The conservative window could not prove a feasible hop.
			// Escalate to a whole-node fetch and re-apply with exact
			// occupancy; only singleton cycles use windows, so nothing has
			// been applied yet.
			drv := cy.leader
			c.postCycleWholeFetch(st, drv)
			if drv != stepped {
				st.ring.Wake(drv)
			}
			return
		}
		if planErr != nil {
			c.splitCycle(st, cy, stepped, op, meta, newLW, done, pending[pi+1:])
			return
		}
		c.moves = moves
		changed = c.applyHops(changed, cy.im, moves, free, home, op.key, op.val)
		c.placed.Note(0, op.key)
		if !cy.full {
			newLW.vacancy = c.updateVacancy(cy.im, cy.fetched, newLW.vacancy, free)
			c.updateArgmaxOnInsert(&newLW, cy.im, cy.fetched, free, op.key)
		}
		done = append(done, op)
	}

	slices.Sort(changed)
	changed = slices.Compact(changed)
	var ranges []byteRange
	if cy.full {
		// A node-granular write: derive the exact lock word from the image.
		newLW = recomputeLockWord(cy.im)
		ranges = mergedCellRanges(nil, lay, changed)
	} else {
		ranges = c.changedRanges(&c.wb, changed, lay.homeOf(pending[0].key))
	}
	h, err := c.postWriteRangesAndUnlock(cy.leaf, cy.im, ranges, newLW)
	if err != nil {
		c.unlockLeaf(cy.leaf, cy.lw)
		for _, op := range pending {
			leave(op, func(op *writeOp) { c.failWriteOp(op, err) })
		}
		c.releaseCycle(cy)
		return
	}
	cy.h = h
	cy.settled = done
	drv := cy.leader
	drv.state = wpWriteWait
	if drv != stepped {
		st.ring.Wake(drv)
	}
}

// splitCycle handles a full leaf discovered mid-apply: the synchronous
// splitLeaf commits every mutation already applied to the image (both
// halves are rewritten from it, and it unlocks internally), so the
// already-applied ops complete; the splitting op and the not-yet-applied
// rest retraverse into the half-split leaves.
func (c *Client) splitCycle(st *wpSched, cy *writeCycle, stepped, splitter *writeOp, meta leafMeta, lw lockWord, done, rest []*writeOp) {
	err := c.splitLeaf(splitter.d.ref, cy.im, meta, lw, splitter.key)
	for _, op := range done {
		op.cy = nil
		if op.notFound {
			op.err = ErrNotFound
		}
		op.state = wpDone
		if op != stepped {
			st.ring.Wake(op)
		}
	}
	splitter.cy = nil
	if err != nil {
		c.failWriteOp(splitter, err)
	} else {
		c.restartWriteOp(st, splitter)
	}
	if splitter != stepped {
		st.ring.Wake(splitter)
	}
	for _, op := range rest {
		op.cy = nil
		c.restartWriteOp(st, op)
		if op != stepped {
			st.ring.Wake(op)
		}
	}
	c.releaseCycle(cy)
}

// findSlot locates key in its fetched neighborhood, or -1.
func (cy *writeCycle) findSlot(lay *leafLayout, key uint64) int {
	home := lay.homeOf(key)
	for d := 0; d < lay.h; d++ {
		i := (home + d) % lay.span
		if !cy.fetched[i] {
			continue
		}
		if e := cy.im.entry(i); e.occupied && e.key == key {
			return i
		}
	}
	return -1
}

// mergedCellRanges converts sorted changed slots into write-back ranges,
// laid out in dst's storage, merging exactly-abutting cells. Unlike
// changedRanges it never spans untouched cells — node-granular cycles
// may dirty non-contiguous slots with unfetchable gaps between them.
func mergedCellRanges(dst []byteRange, lay *leafLayout, changed []int) []byteRange {
	out := dst[:0]
	for _, i := range changed {
		cell := lay.entryCells[i]
		if n := len(out); n > 0 && out[n-1].End >= cell.Off {
			if cell.End() > out[n-1].End {
				out[n-1].End = cell.End()
			}
		} else {
			out = append(out, byteRange{Off: cell.Off, End: cell.End()})
		}
	}
	return out
}

// rearriveWriteOp re-enters the leaf layer at a sibling (B-link chase).
func (c *Client) rearriveWriteOp(st *wpSched, op *writeOp, leaf dmsim.GAddr) {
	c.obs.SiblingChases.Inc()
	if op.d.hops++; op.d.hops > maxRetries {
		c.failWriteOp(op, fmt.Errorf("core: write batch(%#x): sibling chain too long", op.key))
		return
	}
	op.d.ref = leafRef{addr: leaf}
	c.arriveWriteAtLeaf(st, op)
}

// restartWriteOp retraverses one key after an optimistic conflict; the
// rest of the batch is untouched.
func (c *Client) restartWriteOp(st *wpSched, op *writeOp) {
	if op.restarts++; op.restarts > maxRetries {
		c.failWriteOp(op, fmt.Errorf("core: write batch(%#x): retries exhausted", op.key))
		return
	}
	op.d.release(c)
	c.noteRestart()
	c.beginWriteOp(st, op)
}

func (c *Client) failWriteOp(op *writeOp, err error) {
	op.err = err
	op.d.release(c) // cycle resources are cycle-owned
	op.state = wpDone
}

// failCycle fails every op of the cycle; locked says whether the leaf
// lock is held (post errors after a won CAS) and must be released.
func (c *Client) failCycle(st *wpSched, stepped *writeOp, err error, locked bool) {
	cy := stepped.cy
	if locked {
		c.unlockLeaf(cy.leaf, cy.lw)
	}
	if cur, ok := st.cycles[cy.leaf.Pack()]; ok && cur == cy {
		delete(st.cycles, cy.leaf.Pack())
	}
	for _, op := range cy.ops {
		op.cy = nil
		c.failWriteOp(op, err)
		if op != stepped {
			st.ring.Wake(op)
		}
	}
	c.releaseCycle(cy)
}

// releaseCycle drains any in-flight completions and recycles the image.
func (c *Client) releaseCycle(cy *writeCycle) {
	c.reap(cy.h)
	c.reap(cy.h2)
	cy.h, cy.h2 = nil, nil
	if cy.im != nil {
		c.ix.leaf.putImage(cy.im)
		cy.im = nil
	}
	cy.settled = nil
	cy.ops = nil
}
