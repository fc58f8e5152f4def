package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"chime/internal/dmsim"
	"chime/internal/hopscotch"
	"chime/internal/obs"
)

// This file implements CHIME's write path (§4.4): lock-based writes with
// vacancy-bitmap piggybacking, hop-range inserts, entry-granular updates
// and deletes, and node splits with Sherman-style up-propagation.

// acquireLeafLock locks a leaf. Same-CN contention is absorbed by the
// local lock table (Sherman's design, which CHIME inherits — §2.2): a
// local handover delivers the lock together with the current lock-word
// payload and costs no network traffic. The first local contender takes
// the remote lock with the masked-CAS piggyback protocol (§4.2.1):
// compare only the lock bit, swap the whole word, and receive the
// previous word — which carries the vacancy bitmap and argmax for free.
// With the PiggybackVacancy ablation disabled, a plain lock CAS is
// followed by a dedicated READ of the word (the extra access Figure 4a
// measures).
func (c *Client) acquireLeafLock(leaf dmsim.GAddr) (lockWord, error) {
	// Everything until the lock is held — local handover waits, lock
	// CAS round trips, contention backoff — is lock time in the flight
	// ledger.
	fl := c.dc.Flight()
	defer fl.SetPhase(fl.SetPhase(obs.PhaseLockBackoff))
	if c.ix.opts.LeaseLocks {
		return c.acquireLeafLease(leaf)
	}
	if word, handover := c.cn.locks.Acquire(c.dc, leaf.Pack()); handover {
		return decodeLockWord(word), nil
	}
	addr := leafLockAddr(leaf)
	for try := 0; try < maxRetries; try++ {
		if c.ix.opts.PiggybackVacancy {
			prev, ok, err := c.dc.MaskedCAS(addr, 0, lockBit, lockBit, ^uint64(0))
			if err != nil {
				return lockWord{}, err
			}
			if ok {
				c.backoff.Reset()
				return decodeLockWord(prev), nil
			}
		} else {
			_, ok, err := c.dc.MaskedCAS(addr, 0, lockBit, lockBit, lockBit)
			if err != nil {
				return lockWord{}, err
			}
			if ok {
				var b [8]byte
				if err := c.dc.Read(addr, b[:]); err != nil {
					return lockWord{}, err
				}
				c.backoff.Reset()
				return decodeLockWord(binary.LittleEndian.Uint64(b[:])), nil
			}
		}
		c.obs.LockBackoffs.Inc()
		c.backoff.Yield(c.dc)
	}
	return lockWord{}, fmt.Errorf("core: leaf %v: lock acquisition starved", leaf)
}

// lockBytes encodes lw into the client's lock-word buffer. Every verb
// copies its data at post time, so the next call may reuse the buffer.
//
//chime:noalloc
func (c *Client) lockBytes(lw lockWord) []byte {
	binary.LittleEndian.PutUint64(c.lockBuf[:], lw.encode())
	return c.lockBuf[:]
}

// unlockLeaf releases the lock. When a same-CN contender is queued the
// lock is handed over locally — the remote word stays locked and the
// payload (vacancy bitmap, argmax) travels with it; otherwise the
// updated word is written back with the lock bit cleared.
func (c *Client) unlockLeaf(leaf dmsim.GAddr, lw lockWord) error {
	if c.ix.opts.LeaseLocks {
		// Lease mode bypasses the local lock table (recovery.go): write
		// the payload back with the lock bit (and our lease) cleared.
		lw.locked = false
		return c.dc.Write(leafLockAddr(leaf), c.lockBytes(lw))
	}
	lw.locked = true
	if c.cn.locks.ReleaseHandover(c.dc, leaf.Pack(), lw.encode()) {
		return nil
	}
	lw.locked = false
	if err := c.dc.Write(leafLockAddr(leaf), c.lockBytes(lw)); err != nil {
		return err
	}
	c.cn.locks.ReleaseRemote(c.dc, leaf.Pack())
	return nil
}

// doorbell stages the addresses and buffers of one doorbell batch. A
// verb copies both at post time and keeps neither, so one per client
// serves every batch it posts, the write cycles' included.
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

// postWriteRangesAndUnlock posts the modified image ranges together
// with the cleared lock word as ONE doorbell batch and returns the
// completion without polling: a single round trip whose latency
// pipelined callers overlap with other keys' work. dmsim moves data at
// post time, so the remote lock is observably released the moment this
// returns, and the local lock-table slot is cleared here too. Callers
// that need a local handover (HasWaiters) must not use this — the
// handover keeps the remote word locked.
//
//chime:noalloc
func (c *Client) postWriteRangesAndUnlock(leaf dmsim.GAddr, im *leafImage, ranges []byteRange, lw lockWord) (*dmsim.Completion, error) {
	c.db.stage(leaf, im, ranges)
	lw.locked = false
	c.db.add(leafLockAddr(leaf), c.lockBytes(lw))
	h, err := c.dc.PostWriteBatch(c.db.addrs, c.db.bufs)
	if err != nil {
		return nil, err
	}
	//lint:allow noalloc the lock-table release only rewrites a slot a waiter already holds, and Pack formats only its overflow panic
	c.cn.locks.ReleaseRemote(c.dc, leaf.Pack())
	return h, nil
}

// writeRangeAndUnlock writes a contiguous image range back and releases
// the lock. With no local contender the unlock word joins the data in
// one doorbell batch — the combined WRITE pattern CHIME borrows from
// Sherman, costing a single round trip. With a local contender queued,
// only the data is written and the lock is handed over locally.
func (c *Client) writeRangeAndUnlock(leaf dmsim.GAddr, im *leafImage, ranges []byteRange, lw lockWord) error {
	if c.cn.locks.HasWaiters(leaf.Pack()) {
		c.db.stage(leaf, im, ranges)
		if len(c.db.addrs) > 0 {
			if err := c.dc.WriteBatch(c.db.addrs, c.db.bufs); err != nil {
				return err
			}
		}
		lw.locked = true
		if c.cn.locks.ReleaseHandover(c.dc, leaf.Pack(), lw.encode()) {
			return nil
		}
		// The queued waiter vanished between the check and the handover
		// (cannot happen today — waiters never abandon — but stay safe):
		// fall through to a remote unlock.
		lw.locked = false
		if err := c.dc.Write(leafLockAddr(leaf), c.lockBytes(lw)); err != nil {
			return err
		}
		c.cn.locks.ReleaseRemote(c.dc, leaf.Pack())
		return nil
	}
	h, err := c.postWriteRangesAndUnlock(leaf, im, ranges, lw)
	if err != nil {
		return err
	}
	c.reap(h)
	return nil
}

// Insert adds or overwrites a key (upsert semantics, as YCSB inserts
// and loads expect).
func (c *Client) Insert(key uint64, value []byte) error {
	defer c.port.End(c.port.Begin(".insert", obs.OpInsert))
	val, err := c.prepareValue(key, value)
	if err != nil {
		return err
	}
	return c.insertWith(key, func([]byte, bool) ([]byte, error) { return val, nil })
}

// insertWith runs the insert protocol with a value callback: valFn is
// invoked under the leaf lock with the existing stored bytes (exists
// true) for an upsert, or (nil, false) for a fresh placement, and
// returns the bytes to store. Variable-length-key chains (§4.5) use the
// callback to splice blocks atomically.
func (c *Client) insertWith(key uint64, valFn func(old []byte, exists bool) ([]byte, error)) error {
	for attempt := 0; attempt < maxRetries; attempt++ {
		ref, err := c.descend(key)
		if err != nil {
			return err
		}
		done, err := c.insertIntoLeaf(ref, key, valFn)
		if err == errRestart {
			c.noteRestart() // the leaf moved under us (split/delete)
			continue
		}
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		// A split happened; retraverse and retry.
	}
	return fmt.Errorf("core: Insert(%#x): retries exhausted", key)
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

// invalidateRefParent drops the cached parent a leafRef was resolved
// through; stale parents must leave the cache or they re-route every
// retry to the same outdated leaf.
func (c *Client) invalidateRefParent(ref leafRef) {
	if ref.parentFromCache && !ref.parentAddr.IsNil() {
		c.cn.cache.invalidate(ref.parentAddr)
	}
}

// insertIntoLeaf performs the §4.4 insert protocol on one leaf. It
// returns done=false when it split the node (the caller retries), and
// errRestart when the key belongs elsewhere (stale ref).
func (c *Client) insertIntoLeaf(ref leafRef, key uint64, valFn func([]byte, bool) ([]byte, error)) (done bool, err error) {
	lay := c.ix.leaf
	lw, err := c.acquireLeafLock(ref.addr)
	if err != nil {
		return false, err
	}
	// From here every early exit must unlock.
	home := lay.homeOf(key)

	im, err := c.fetchInsertWindow(ref.addr, home, lw)
	if err != nil {
		c.unlockLeaf(ref.addr, lw)
		return false, err
	}
	// Every write verb below copies out of the image at post time, so the
	// buffer can be recycled on any exit (split paths included).
	defer func() { lay.putImage(im) }()
	w := &c.win

	// Validate that this leaf still covers the key (half-split during
	// our traversal): the lock is held, so the metadata is stable.
	meta := im.meta(w.metaG)
	if !meta.valid {
		c.unlockLeaf(ref.addr, lw)
		c.invalidateRefParent(ref)
		return false, errRestart
	}
	if ref.expectedKnown && meta.sibling != ref.expected && ref.parentFromCache {
		// Cache validation (§4.2.3): the cached parent predates a split.
		c.unlockLeaf(ref.addr, lw)
		c.invalidateRefParent(ref)
		return false, errRestart
	}
	if !meta.fenceInf && key >= meta.fenceHi {
		// The key moved right; §4.2.3's corner case. With the argmax we
		// could test the split node's max key, but the fenceHigh replica
		// answers directly: release, drop any stale cached parent (or it
		// would route us straight back here), and retraverse.
		c.unlockLeaf(ref.addr, lw)
		c.invalidateRefParent(ref)
		return false, errRestart
	}

	// Upsert: if the key already exists in its neighborhood, update it.
	for d := 0; d < lay.h; d++ {
		i := (home + d) % lay.span
		if !w.fetched[i] {
			continue
		}
		if e := im.entry(i); e.occupied && e.key == key {
			val, err := valFn(e.value, true)
			if err != nil {
				c.unlockLeaf(ref.addr, lw)
				return false, err
			}
			e.value = val
			im.setEntry(i, e)
			c.placed.Note(0, key)
			c.changed = append(c.changed[:0], i)
			err = c.writeRangeAndUnlock(ref.addr, im, c.changedRanges(&c.wb, c.changed, home), lw)
			return true, err
		}
	}

	// Hop planning over the fetched occupancy; unfetched slots are
	// treated as occupied-and-immovable, which is exact for every slot
	// the plan may touch (see fetchInsertWindow).
	moves, free, planErr := hopscotch.AppendPlan(c.moves[:0], lay.span, lay.h, home,
		func(i int) bool {
			if !w.fetched[i] {
				return true
			}
			return im.entry(i).occupied
		},
		func(i int) int {
			if !w.fetched[i] {
				return i
			}
			return lay.homeOf(im.entry(i).key)
		},
	)
	if planErr != nil && !w.full {
		// The conservative window could not prove a feasible hop; fetch
		// the whole node and re-plan with exact occupancy.
		lay.putImage(im)
		im, _, err = c.fetchWholeLeaf(ref.addr)
		if err != nil {
			c.unlockLeaf(ref.addr, lw)
			return false, err
		}
		w.setWhole(lay)
		meta = im.meta(w.metaG)
		moves, free, planErr = hopscotch.AppendPlan(c.moves[:0], lay.span, lay.h, home,
			func(i int) bool { return im.entry(i).occupied },
			func(i int) int { return lay.homeOf(im.entry(i).key) },
		)
	}
	if planErr != nil {
		// Genuinely no room: split the node (unlocks internally).
		if err := c.splitLeaf(ref, im, meta, lw, key); err != nil {
			return false, err
		}
		return false, nil
	}

	val, err := valFn(nil, false)
	if err != nil {
		c.unlockLeaf(ref.addr, lw)
		return false, err
	}
	c.moves = moves
	c.changed = c.applyHops(c.changed[:0], im, moves, free, home, key, val)
	c.placed.Note(0, key)

	// Lock-word bookkeeping (§4.2.1, §4.2.3): vacancy bit of the filled
	// slot's group, and the argmax index.
	lw.vacancy = c.updateVacancy(im, w.fetched, lw.vacancy, free)
	c.updateArgmaxOnInsert(&lw, im, w.fetched, free, key)

	if err := c.writeRangeAndUnlock(ref.addr, im, c.changedRanges(&c.wb, c.changed, home), lw); err != nil {
		return false, err
	}
	return true, nil
}

// leafWindow is the fetch geometry of one leaf write: the byte ranges
// read and version-checked together, and the entries they cover. Its
// slices are scratch that the next window laid out in it reuses.
type leafWindow struct {
	// ranges are what the version check covers. The first n are read in
	// one doorbell batch; one more past them is replica 0, read on its own
	// (the ReplicateMeta ablation, or a window holding no replica).
	ranges  []byteRange
	n       int
	metaG   int    // the replica group meta decodes
	full    bool   // the whole leaf: every entry fetched
	fetched []bool // per entry
}

// batch is the ranges read in the window's doorbell batch.
func (w *leafWindow) batch() []byteRange { return w.ranges[:w.n] }

// metaRead is the replica range read on its own, if any.
func (w *leafWindow) metaRead() (byteRange, bool) {
	if len(w.ranges) > w.n {
		return w.ranges[w.n], true
	}
	return byteRange{}, false
}

// setNarrow lays out the window of entries [home, home+count)
// circularly (count < span), extended to a metadata replica, plus the
// cell of entry argmax when argmax >= 0 names one outside it: the
// argmax entry rides in the same doorbell batch (§4.2.3). It is the one
// insert/update window geometry of the synchronous and the batch
// writer.
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
	for i := range mask {
		mask[i] = v
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

// fetchInsertWindow reads the insert working set in one round trip into
// c.win and a pooled image: the neighborhood of home extended through
// the first vacancy-bitmap group that may contain an empty slot, plus
// the argmax entry when it falls outside (fetched in the same doorbell
// batch) — or the whole leaf when every group advertises full.
func (c *Client) fetchInsertWindow(leaf dmsim.GAddr, home int, lw lockWord) (*leafImage, error) {
	lay := c.ix.leaf
	w := &c.win

	// Walk vacancy groups forward from home's group looking for a group
	// that may contain an empty slot.
	count := c.probeCount(home, lw.vacancy)
	if count >= lay.span {
		im, _, err := c.fetchWholeLeaf(leaf)
		w.setWhole(lay)
		return im, err
	}
	w.setNarrow(lay, home, max(count, lay.h), lw.argmaxSlot(), c.ix.opts.ReplicateMeta)

	// Pooled image: only the fetched ranges are ever decoded or written
	// back (the fetched mask gates every consumer), so a recycled buffer's
	// stale bytes are unreachable.
	im := lay.getImage()
	for try := 0; try < maxRetries; try++ {
		var err error
		if b := w.batch(); len(b) == 1 {
			err = c.dc.Read(leaf.Add(uint64(b[0].Off)), im.buf[b[0].Off:b[0].End])
		} else {
			c.db.stage(leaf, im, b)
			err = c.dc.ReadBatch(c.db.addrs, c.db.bufs)
		}
		if err == nil {
			if rc, ok := w.metaRead(); ok {
				err = c.dc.Read(leaf.Add(uint64(rc.Off)), im.buf[rc.Off:rc.End])
			}
		}
		if err != nil {
			lay.putImage(im)
			return nil, err
		}
		// We hold the lock, so no writer races us; a version mismatch
		// can only come from our own read tearing against nothing —
		// still validate for defense in depth.
		if err := im.checkRanges(w.ranges); err != nil {
			c.obs.TornReads.Inc()
			c.backoff.Yield(c.dc)
			continue
		}
		return im, nil
	}
	lay.putImage(im)
	return nil, fmt.Errorf("core: leaf %v: insert window retries exhausted", leaf)
}

// probeCount returns how many entries past home must be fetched so that
// the first truly-empty slot (per the vacancy bitmap) is covered, or
// span when every group advertises full.
func (c *Client) probeCount(home int, vacancy uint64) int {
	lay := c.ix.leaf
	groups, perBit := lay.vacGroups, lay.vacPerBit
	g := groupOf(home, perBit)
	for step := 0; step < groups; step++ {
		gg := (g + step) % groups
		if vacancy&(1<<uint(gg)) == 0 {
			_, hi := groupRange(gg, perBit, lay.span)
			count := ((hi - 1 - home + lay.span) % lay.span) + 1
			if step == 0 && perBit > 1 {
				// The home group's free slot may precede home; make the
				// window also cover the next group so the probe usually
				// still lands inside the fetch (whole-node fallback
				// otherwise).
				g2 := (gg + 1) % groups
				_, hi2 := groupRange(g2, perBit, lay.span)
				count = ((hi2 - 1 - home + lay.span) % lay.span) + 1
			}
			if count > lay.span {
				count = lay.span
			}
			return count
		}
	}
	return lay.span
}

// fetchWholeLeaf reads the complete leaf image (splits and fallbacks)
// and returns it with its metadata replica group.
func (c *Client) fetchWholeLeaf(leaf dmsim.GAddr) (*leafImage, int, error) {
	lay := c.ix.leaf
	im := lay.getImage()
	// A recycled buffer carries a stale lock line; the read below only
	// fills the cell region, so clear the first line to match a fresh
	// image (split paths encode over the whole buffer).
	for i := range im.buf[:lineSize] {
		im.buf[i] = 0
	}
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

// applyHops executes the hop moves on the local image, inserts the key
// at the freed slot, and appends to dst the indexes of all modified
// entries, sorted and each once. Hop-entry modifications bump
// entry-level versions; readers detect the intermediate states via the
// reused-hopscotch-bitmap check (§4.1.2).
func (c *Client) applyHops(dst []int, im *leafImage, moves []hopscotch.Move, free, home int, key uint64, val []byte) []int {
	lay := im.lay
	start := len(dst)
	for _, m := range moves {
		e := im.entry(m.From)
		kHome := lay.homeOf(e.key)

		// Relocate the key: clear source, fill target.
		target := im.entry(m.To)
		target.occupied = true
		target.key = e.key
		target.value = e.value
		im.setEntry(m.To, target)

		src := im.entry(m.From)
		src.occupied = false
		im.setEntry(m.From, src)

		// Update the hopscotch bitmap in the key's home entry.
		hEntry := im.entry(kHome)
		dOld := ((m.From-kHome)%lay.span + lay.span) % lay.span
		dNew := ((m.To-kHome)%lay.span + lay.span) % lay.span
		hEntry.hopBM &^= 1 << uint(dOld)
		hEntry.hopBM |= 1 << uint(dNew)
		im.setEntry(kHome, hEntry)

		dst = append(dst, m.From, m.To, kHome)
	}

	e := im.entry(free)
	e.occupied = true
	e.key = key
	e.value = val
	im.setEntry(free, e)
	hEntry := im.entry(home)
	d := ((free-home)%lay.span + lay.span) % lay.span
	hEntry.hopBM |= 1 << uint(d)
	im.setEntry(home, hEntry)
	dst = append(dst, free, home)

	slices.Sort(dst[start:])
	return append(dst[:start], slices.Compact(dst[start:])...)
}

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

// updateVacancy recomputes the vacancy bit of the group containing the
// filled slot. A bit is set ("full") only when the writer can prove
// every entry of the group is occupied from fetched data; otherwise it
// stays conservative at 0.
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

// updateOneSided overwrites the value of an existing key with one-sided
// verbs only; the public Update (offload.go) routes between this and
// the MN-side offload program.
func (c *Client) updateOneSided(key uint64, value []byte) error {
	val, err := c.prepareValue(key, value)
	if err != nil {
		return err
	}
	return c.modifyEntry(key, func([]byte) ([]byte, bool, error) { return val, true, nil })
}

// Delete removes a key, returning ErrNotFound if it is absent. Per
// §4.4, a delete clears the target entry via the update path; leaf
// merges are not triggered (structural merging is a rare path the paper
// inherits from DM B+ trees).
func (c *Client) Delete(key uint64) error {
	defer c.port.End(c.port.Begin(".delete", obs.OpDelete))
	return c.modifyEntry(key, nil)
}

// modifyEntry implements the shared update/delete protocol: lock, read
// the neighborhood, mutate (or clear) the entry, write back + unlock in
// one trip. mutate == nil means delete; a non-nil mutate runs under the
// leaf lock (it may issue verbs) with the entry's stored bytes and
// returns the bytes to store, or keep=false to delete the entry after all.
func (c *Client) modifyEntry(key uint64, mutate func(old []byte) (val []byte, keep bool, err error)) error {
	for attempt := 0; attempt < maxRetries; attempt++ {
		ref, err := c.descend(key)
		if err != nil {
			return err
		}
		err = c.modifyInLeaf(ref, key, mutate)
		if err == errRestart {
			c.noteRestart()
			continue
		}
		return err
	}
	return fmt.Errorf("core: modify(%#x): retries exhausted", key)
}

func (c *Client) modifyInLeaf(ref leafRef, key uint64, mutate func([]byte) ([]byte, bool, error)) error {
	lay := c.ix.leaf
	addr := ref.addr
	for hops := 0; hops <= maxRetries; hops++ {
		lw, err := c.acquireLeafLock(addr)
		if err != nil {
			return err
		}
		home := lay.homeOf(key)
		im, metaG, err := c.fetchLeafWindow(addr, home, lay.h)
		if err != nil {
			c.unlockLeaf(addr, lw)
			return err
		}
		c.idxs = lay.neighborhoodIndexes(c.idxs[:0], home, lay.h)
		meta := im.meta(metaG)
		if !meta.valid {
			c.unlockLeaf(addr, lw)
			lay.putImage(im)
			c.invalidateRefParent(ref)
			return errRestart
		}

		foundIdx := -1
		for _, i := range c.idxs {
			if e := im.entry(i); e.occupied && e.key == key {
				foundIdx = i
				break
			}
		}
		if foundIdx < 0 {
			// Half-split: the key may live in a right sibling.
			if !meta.fenceInf && key >= meta.fenceHi && !meta.sibling.IsNil() {
				c.obs.SiblingChases.Inc()
				next := meta.sibling
				c.unlockLeaf(addr, lw)
				lay.putImage(im)
				addr = next
				continue
			}
			c.unlockLeaf(addr, lw)
			lay.putImage(im)
			return ErrNotFound
		}

		c.changed = append(c.changed[:0], foundIdx)
		keep := false
		if mutate != nil {
			e := im.entry(foundIdx)
			val, k, err := mutate(e.value)
			if err != nil {
				c.unlockLeaf(addr, lw)
				lay.putImage(im)
				return err
			}
			keep = k
			if keep {
				e.value = val
				im.setEntry(foundIdx, e)
			}
		}
		if !keep {
			// Delete: clear the entry and its home-bitmap bit, update
			// vacancy and argmax.
			e := im.entry(foundIdx)
			e.occupied = false
			im.setEntry(foundIdx, e)
			hEntry := im.entry(home)
			d := ((foundIdx-home)%lay.span + lay.span) % lay.span
			hEntry.hopBM &^= 1 << uint(d)
			im.setEntry(home, hEntry)
			c.changed = append(c.changed, home)
			slices.Sort(c.changed)

			g := groupOf(foundIdx, lay.vacPerBit)
			lw.vacancy &^= 1 << uint(g)
			if lw.argmaxValid && lw.argmax == foundIdx {
				lw.argmaxValid = false
			}
		}
		err = c.writeRangeAndUnlock(addr, im, c.changedRanges(&c.wb, c.changed, home), lw)
		mergeCheck := err == nil && !keep && deleteLeftEmpty(im, c.idxs, lw)
		lay.putImage(im)
		if mergeCheck {
			// §4.4: a delete that may have emptied the leaf triggers a
			// node merge (confirmed with a whole-node read).
			c.maybeMergeLeaf(addr, key)
		}
		return err
	}
	return fmt.Errorf("core: modify(%#x): sibling chain too long", key)
}
