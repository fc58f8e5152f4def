package rolex

import (
	"encoding/binary"
	"fmt"

	"chime/internal/dmsim"
	"chime/internal/lease"
	"chime/internal/nodelayout"
	"chime/internal/obs"
	"chime/internal/offroute"
)

// readGroup fetches a leaf group's main leaf and overflow buddy in one
// doorbell batch (one round trip, 2·span entries — ROLEX's read
// amplification), validating versions on both. They become the first two
// leaves of c.group.
func (c *Client) readGroup(g int) (main, buddy *image, err error) {
	lay := c.ix.lay
	c.group.reset()
	main = c.group.next(lay, c.ix.groupMain(g))
	buddy = c.group.next(lay, c.ix.groupBuddy(g))
	c.addrs = append(c.addrs[:0], c.ix.groupMain(g).Add(lineSize), c.ix.groupBuddy(g).Add(lineSize))
	c.bufs = append(c.bufs[:0], main.body(), buddy.body())
	for try := 0; try < maxRetries; try++ {
		if err = c.dc.ReadBatch(c.addrs, c.bufs); err != nil {
			return nil, nil, err
		}
		if main.check() != nil || buddy.check() != nil {
			c.obs.TornReads.Inc()
			c.backoff.Yield(c.dc)
			continue
		}
		c.backoff.Reset()
		return main, buddy, nil
	}
	return nil, nil, fmt.Errorf("rolex: group %d: torn-read retries exhausted", g)
}

// readChained fetches one extra overflow leaf (rare path) as the next
// leaf of c.group.
func (c *Client) readChained(addr dmsim.GAddr) (*image, error) {
	im := c.group.next(c.ix.lay, addr)
	for try := 0; try < maxRetries; try++ {
		if err := c.dc.Read(addr.Add(lineSize), im.body()); err != nil {
			return nil, err
		}
		if im.check() != nil {
			c.obs.TornReads.Inc()
			c.backoff.Yield(c.dc)
			continue
		}
		c.backoff.Reset()
		return im, nil
	}
	return nil, fmt.Errorf("rolex: chained leaf %v: retries exhausted", addr)
}

// readWholeGroup fetches every leaf of a group — main, buddy and the
// overflow chain to its end — so a writer's upsert and capacity checks,
// and a scan, see the whole group. The leaves are c.group.leaves.
func (c *Client) readWholeGroup(g int) ([]groupLeaf, error) {
	_, buddy, err := c.readGroup(g)
	if err != nil {
		return nil, err
	}
	for chain := buddy.chain(); !chain.IsNil(); {
		im, err := c.readChained(chain)
		if err != nil {
			return nil, err
		}
		chain = im.chain()
	}
	return c.group.leaves, nil
}

// searchOneSided performs a point query. In hopscotch-leaf mode
// ("CHIME-Learned") only the H-entry neighborhoods of the main leaf and
// its buddy are fetched; otherwise both whole leaves are.
func (c *Client) searchOneSided(key uint64) ([]byte, error) {
	g := c.ix.route(key)
	c.chargeModel()
	if c.ix.lay.hop {
		im, slot, err := c.searchHopGroup(g, key)
		if err != nil {
			return nil, err
		}
		if slot >= 0 {
			return c.resolve(im.value(slot), key)
		}
		return c.searchChain(g, key, dmsim.NilGAddr, true)
	}
	main, buddy, err := c.readGroup(g)
	if err != nil {
		return nil, err
	}
	for _, im := range [2]*image{main, buddy} {
		if slot, _ := im.find(key); slot >= 0 {
			return c.resolve(im.value(slot), key)
		}
	}
	return c.searchChain(g, key, buddy.chain(), false)
}

// searchChain walks a group's overflow chain (rare). When fetchHead is
// set the chain head is first read from the buddy's header cell.
func (c *Client) searchChain(g int, key uint64, chain dmsim.GAddr, fetchHead bool) ([]byte, error) {
	if fetchHead {
		hc := c.ix.lay.header
		c.group.reset()
		im := c.group.next(c.ix.lay, c.ix.groupBuddy(g))
		if err := c.dc.Read(c.ix.groupBuddy(g).Add(uint64(hc.Off)), im.buf[hc.Off:hc.End()]); err != nil {
			return nil, err
		}
		chain = im.chain()
	}
	for hops := 0; !chain.IsNil() && hops < maxRetries; hops++ {
		c.obs.SiblingChases.Inc()
		c.group.reset()
		im, err := c.readChained(chain)
		if err != nil {
			return nil, err
		}
		if slot, _ := im.find(key); slot >= 0 {
			return c.resolve(im.value(slot), key)
		}
		chain = im.chain()
	}
	return nil, ErrNotFound
}

// resolve turns a found entry's stored bytes into the search result,
// which is the caller's: a copy of them when inline, the KV block they
// point to when indirect.
func (c *Client) resolve(stored []byte, key uint64) ([]byte, error) {
	if !c.ix.opts.Indirect {
		return append([]byte(nil), stored...), nil
	}
	return c.readBlock(stored, key, make([]byte, 8+c.ix.opts.ValueSize))
}

// readBlock follows an indirect entry's block pointer, reading the
// [8B key][value] block into buf and returning the value in it. A key
// mismatch means the entry was concurrently re-pointed.
func (c *Client) readBlock(stored []byte, key uint64, buf []byte) ([]byte, error) {
	ptr := ptrOf(stored)
	for try := 0; try < maxRetries && !ptr.IsNil(); try++ {
		if err := c.dc.Read(ptr, buf); err != nil {
			return nil, err
		}
		if binary.LittleEndian.Uint64(buf[:8]) == key {
			return buf[8:], nil
		}
		c.obs.Retries.Inc()
		c.backoff.Yield(c.dc)
	}
	return nil, ErrNotFound
}

// lockGroup serializes writers on a leaf group via the main leaf's lock
// word, with same-CN contention absorbed by the local lock table.
func (c *Client) lockGroup(g int) error {
	// All time until the lock is held — handover waits, CAS round
	// trips, backoff — is lock time in the flight ledger.
	fl := c.dc.Flight()
	defer fl.SetPhase(fl.SetPhase(obs.PhaseLockBackoff))
	addr := c.ix.groupMain(g)
	if c.ix.opts.LeaseLocks {
		return c.lockGroupLease(addr, g)
	}
	if _, handover := c.cn.locks.Acquire(c.dc, addr.Pack()); handover {
		return nil
	}
	for try := 0; try < maxRetries; try++ {
		_, ok, err := c.dc.MaskedCAS(addr, 0, 1, 1, 1)
		if err != nil {
			return err
		}
		if ok {
			c.backoff.Reset()
			return nil
		}
		c.obs.LockBackoffs.Inc()
		c.backoff.Yield(c.dc)
	}
	return fmt.Errorf("rolex: group %d lock starved", g)
}

// lockGroupLease is the lease-mode acquisition: the CAS installs an
// (owner, expiry) lease and a lock stuck under an expired lease is
// stolen (internal/lease). Writers re-read the group under the lock,
// so a steal needs no repair read.
func (c *Client) lockGroupLease(addr dmsim.GAddr, g int) error {
	leaseNs := c.ix.opts.LeaseNs
	if leaseNs <= 0 {
		leaseNs = lease.DefaultNs
	}
	for try := 0; try < maxRetries; try++ {
		word := lease.Word(c.dc.ID(), c.dc.Now()+leaseNs)
		prev, ok, err := c.dc.MaskedCAS(addr, 0, word, 1, ^uint64(0))
		if err != nil {
			return err
		}
		if ok {
			c.backoff.Reset()
			return nil
		}
		if lease.Expired(prev, c.dc.Now()) {
			c.obs.LeaseExpired.Inc()
			if _, won, err := c.dc.CAS(addr, prev, word); err != nil {
				return err
			} else if won {
				c.obs.Recoveries.Inc()
				c.backoff.Reset()
				return nil
			}
		}
		c.obs.LockBackoffs.Inc()
		c.backoff.Yield(c.dc)
	}
	return fmt.Errorf("rolex: group %d lock starved", g)
}

func (c *Client) unlockGroup(g int) error {
	addr := c.ix.groupMain(g)
	if c.ix.opts.LeaseLocks {
		var zero [8]byte
		return c.dc.Write(addr, zero[:])
	}
	if c.cn.locks.ReleaseHandover(c.dc, addr.Pack(), 1) {
		return nil
	}
	var zero [8]byte
	if err := c.dc.Write(addr, zero[:]); err != nil {
		return err
	}
	c.cn.locks.ReleaseRemote(c.dc, addr.Pack())
	return nil
}

func (c *Client) prepareValue(key uint64, value []byte) ([]byte, error) {
	if !c.ix.opts.Indirect {
		if len(value) != c.ix.opts.ValueSize {
			return nil, fmt.Errorf("rolex: value is %dB, index stores %dB", len(value), c.ix.opts.ValueSize)
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

// unlocked is a released lock word, as a write's source buffer.
var unlocked [8]byte

// writeEntryAndUnlock writes one entry of a leaf and releases the group
// lock: a combined doorbell batch without local contenders, a local
// handover otherwise (the group is contiguous on one MN, so the batch
// is always legal).
func (c *Client) writeEntryAndUnlock(lf groupLeaf, g int, slot int) error {
	cellAddr := lf.addr.Add(uint64(c.ix.lay.entryCells[slot].Off))
	lockAddr := c.ix.groupMain(g)
	if c.cn.locks.HasWaiters(lockAddr.Pack()) {
		if err := c.dc.Write(cellAddr, lf.im.cell(slot)); err != nil {
			return err
		}
		if c.cn.locks.ReleaseHandover(c.dc, lockAddr.Pack(), 1) {
			return nil
		}
	}
	c.addrs = append(c.addrs[:0], cellAddr, lockAddr)
	c.bufs = append(c.bufs[:0], lf.im.cell(slot), unlocked[:])
	if err := c.dc.WriteBatch(c.addrs, c.bufs); err != nil {
		return err
	}
	c.cn.locks.ReleaseRemote(c.dc, lockAddr.Pack())
	return nil
}

// Insert adds or overwrites a key. The key is routed by the pre-trained
// model; it lands in its group's main leaf, the buddy, or — rarely — a
// chained overflow leaf (ROLEX's data-movement constraint keeps it in
// the group either way, so no retraining is needed).
func (c *Client) Insert(key uint64, value []byte) error {
	if sp := c.obs.Tracer.Begin("rolex.insert", "idx", c.dc.ID(), c.dc.Now()); sp != nil {
		defer func() { sp.End(c.dc.Now()) }()
	}
	if fl := c.dc.Flight(); fl != nil {
		fl.Begin(obs.OpInsert, c.dc.Now())
		defer func() { fl.End(c.dc.Now()) }()
	}
	val, err := c.prepareValue(key, value)
	if err != nil {
		return err
	}
	g := c.ix.route(key)
	c.chargeModel()
	if err := c.lockGroup(g); err != nil {
		return err
	}
	leaves, err := c.readWholeGroup(g)
	if err != nil {
		c.unlockGroup(g)
		return err
	}
	lay := c.ix.lay

	// Upsert in place (preserving the slot's hopscotch bitmap, which
	// tracks keys homed at the slot, not the stored key).
	for i := range leaves {
		lf := &leaves[i]
		var slot int
		if slot, lf.free = lf.im.find(key); slot >= 0 {
			lf.im.put(slot, key, val, true)
			return c.writeEntryAndUnlock(*lf, g, slot)
		}
	}
	// Place the key: hopscotch planning per leaf in hop mode, first
	// free slot otherwise.
	for _, lf := range leaves {
		if lay.hop {
			if slots, ok := hopInsert(lf.im, key, val); ok {
				return c.writeSlotsAndUnlock(lf, g, slots)
			}
			continue
		}
		if lf.free >= 0 {
			lf.im.put(lf.free, key, val, true)
			return c.writeEntryAndUnlock(lf, g, lf.free)
		}
	}

	// Group exhausted: chain a new overflow leaf onto the last one.
	c.obs.Splits.Inc()
	newAddr, err := c.alloc.Alloc(lay.size)
	if err != nil {
		c.unlockGroup(g)
		return err
	}
	last := leaves[len(leaves)-1]
	fresh := c.group.next(lay, newAddr)
	clear(fresh.buf)
	if lay.hop {
		if !newPlacer(fresh).place(key, val) {
			c.unlockGroup(g)
			return fmt.Errorf("rolex: fresh overflow leaf rejected key %#x", key)
		}
	} else {
		fresh.put(0, key, val, false)
	}
	if err := c.dc.Write(newAddr, fresh.buf); err != nil {
		c.unlockGroup(g)
		return err
	}
	last.im.setChain(newAddr)
	nodelayout.BumpEV(last.im.buf, lay.header)
	hc := lay.header
	if err := c.dc.Write(last.addr.Add(uint64(hc.Off)), last.im.buf[hc.Off:hc.End()]); err != nil {
		return err
	}
	return c.unlockGroup(g)
}

// updateOneSided overwrites an existing key, ErrNotFound otherwise.
func (c *Client) updateOneSided(key uint64, value []byte) error {
	val, err := c.prepareValue(key, value)
	if err != nil {
		return err
	}
	return c.modify(key, &val)
}

// Delete removes a key.
func (c *Client) Delete(key uint64) error {
	if sp := c.obs.Tracer.Begin("rolex.delete", "idx", c.dc.ID(), c.dc.Now()); sp != nil {
		defer func() { sp.End(c.dc.Now()) }()
	}
	if fl := c.dc.Flight(); fl != nil {
		fl.Begin(obs.OpDelete, c.dc.Now())
		defer func() { fl.End(c.dc.Now()) }()
	}
	return c.modify(key, nil)
}

func (c *Client) modify(key uint64, val *[]byte) error {
	g := c.ix.route(key)
	c.chargeModel()
	if err := c.lockGroup(g); err != nil {
		return err
	}
	leaves, err := c.readWholeGroup(g)
	if err != nil {
		c.unlockGroup(g)
		return err
	}
	lay := c.ix.lay
	for _, lf := range leaves {
		slot, _ := lf.im.find(key)
		if slot < 0 {
			continue
		}
		if val != nil {
			lf.im.put(slot, key, *val, true)
			return c.writeEntryAndUnlock(lf, g, slot)
		}
		// Delete: clear occupancy but keep the slot's own bitmap; in hop
		// mode also drop the key's bit in its home entry.
		lf.im.vacate(slot, true)
		if !lay.hop {
			return c.writeEntryAndUnlock(lf, g, slot)
		}
		home := lay.homeOf(key)
		_, bm, _ := lf.im.slot(home)
		lf.im.setHopBM(home, bm&^(1<<uint(lay.dist(home, slot))), true)
		c.hopSlots = append(c.hopSlots[:0], min(slot, home))
		if home != slot {
			c.hopSlots = append(c.hopSlots, max(slot, home))
		}
		return c.writeSlotsAndUnlock(lf, g, c.hopSlots)
	}
	c.unlockGroup(g)
	return ErrNotFound
}

// KV is one scan result.
type KV = offroute.KV

// scanOneSided reads consecutive groups until the budget is filled;
// ROLEX's small span makes scans cheap. Every group is read whole and its
// in-range entries sorted; values are copied out of the leaf images into
// the scan's arena before the next group is read into them. An indirect
// entry costs its block read whether the result is wanted or not — what
// the modelled client does.
func (c *Client) scanOneSided(sb *offroute.ScanBuf, start uint64, count int) error {
	lay := c.ix.lay
	g := c.ix.route(start)
	c.chargeModel()
	sb.Reset(count, c.ix.opts.ValueSize)
	if c.ix.opts.Indirect && c.block == nil {
		c.block = make([]byte, 8+c.ix.opts.ValueSize)
	}
	for ; g < c.ix.numGroups; g++ {
		leaves, err := c.readWholeGroup(g)
		if err != nil {
			return err
		}
		slots := c.scanSlots[:0]
		for n, lf := range leaves {
			slots = lf.im.inRange(slots, start, n*lay.span)
		}
		c.scanSlots = slots[:0]
		offroute.SortSlots(slots, &c.slotSort)
		if !c.ix.opts.Indirect {
			slots = slots[:min(count-len(sb.Out), len(slots))]
		}
		for _, s := range slots {
			v := leaves[s.Idx/lay.span].im.value(s.Idx % lay.span)
			if c.ix.opts.Indirect {
				if v, err = c.readBlock(v, s.Key, c.block); err != nil {
					return err
				}
			}
			sb.Add(s.Key, v)
		}
		if len(sb.Out) >= count {
			sb.Out = sb.Out[:count]
			return nil
		}
	}
	return nil
}

// inRange appends the leaf's occupied slots with keys >= start to dst, in
// slot order, numbering them from base.
func (im *image) inRange(dst []offroute.ScanSlot, start uint64, base int) []offroute.ScanSlot {
	for i := 0; i < im.lay.span; i++ {
		if occupied, _, key := im.slot(i); occupied && key >= start {
			dst = append(dst, offroute.ScanSlot{Key: key, Idx: base + i})
		}
	}
	return dst
}
