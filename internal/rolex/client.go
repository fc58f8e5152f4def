package rolex

import (
	"encoding/binary"
	"fmt"
	"sort"

	"chime/internal/dmsim"
	"chime/internal/lease"
	"chime/internal/nodelayout"
	"chime/internal/obs"
	"chime/internal/offroute"
)

// readGroup fetches a leaf group's main leaf and overflow buddy in one
// doorbell batch (one round trip, 2·span entries — ROLEX's read
// amplification), validating versions on both.
func (c *Client) readGroup(g int) (main, buddy []byte, err error) {
	lay := c.ix.lay
	main = make([]byte, lay.size)
	buddy = make([]byte, lay.size)
	for try := 0; try < maxRetries; try++ {
		err = c.dc.ReadBatch(
			[]dmsim.GAddr{c.ix.groupMain(g).Add(lineSize), c.ix.groupBuddy(g).Add(lineSize)},
			[][]byte{main[lineSize:], buddy[lineSize:]},
		)
		if err != nil {
			return nil, nil, err
		}
		if nodelayout.CheckVersions(main, 0, lay.allCells) != nil ||
			nodelayout.CheckVersions(buddy, 0, lay.allCells) != nil {
			c.obs.TornReads.Inc()
			c.backoff.Yield(c.dc)
			continue
		}
		c.backoff.Reset()
		return main, buddy, nil
	}
	return nil, nil, fmt.Errorf("rolex: group %d: torn-read retries exhausted", g)
}

// readChained fetches one extra overflow leaf (rare path).
func (c *Client) readChained(addr dmsim.GAddr) ([]byte, error) {
	lay := c.ix.lay
	img := make([]byte, lay.size)
	for try := 0; try < maxRetries; try++ {
		if err := c.dc.Read(addr.Add(lineSize), img[lineSize:]); err != nil {
			return nil, err
		}
		if nodelayout.CheckVersions(img, 0, lay.allCells) != nil {
			c.obs.TornReads.Inc()
			c.backoff.Yield(c.dc)
			continue
		}
		c.backoff.Reset()
		return img, nil
	}
	return nil, fmt.Errorf("rolex: chained leaf %v: retries exhausted", addr)
}

func (c *Client) findIn(img []byte, key uint64) (int, entry) {
	lay := c.ix.lay
	for i := 0; i < lay.span; i++ {
		e := lay.decodeEntry(img, i)
		if e.occupied && e.key == key {
			return i, e
		}
	}
	return -1, entry{}
}

// searchOneSided performs a point query. In hopscotch-leaf mode
// ("CHIME-Learned") only the H-entry neighborhoods of the main leaf and
// its buddy are fetched; otherwise both whole leaves are.
func (c *Client) searchOneSided(key uint64) ([]byte, error) {
	g := c.ix.route(key)
	c.chargeModel()
	if c.ix.lay.hop {
		e, found, err := c.searchHopGroup(g, key)
		if err != nil {
			return nil, err
		}
		if found {
			return c.resolve(e, key)
		}
		return c.searchChain(g, key, dmsim.NilGAddr, true)
	}
	main, buddy, err := c.readGroup(g)
	if err != nil {
		return nil, err
	}
	for _, img := range [][]byte{main, buddy} {
		if _, e := c.findIn(img, key); e.occupied {
			return c.resolve(e, key)
		}
	}
	return c.searchChain(g, key, c.ix.lay.chain(buddy), false)
}

// searchChain walks a group's overflow chain (rare). When fetchHead is
// set the chain head is first read from the buddy's header cell.
func (c *Client) searchChain(g int, key uint64, chain dmsim.GAddr, fetchHead bool) ([]byte, error) {
	lay := c.ix.lay
	if fetchHead {
		hc := lay.header
		hdr := make([]byte, lay.size)
		if err := c.dc.Read(c.ix.groupBuddy(g).Add(uint64(hc.Off)), hdr[hc.Off:hc.End()]); err != nil {
			return nil, err
		}
		chain = lay.chain(hdr)
	}
	for hops := 0; !chain.IsNil() && hops < maxRetries; hops++ {
		c.obs.SiblingChases.Inc()
		img, err := c.readChained(chain)
		if err != nil {
			return nil, err
		}
		if _, e := c.findIn(img, key); e.occupied {
			return c.resolve(e, key)
		}
		chain = lay.chain(img)
	}
	return nil, ErrNotFound
}

func (c *Client) resolve(e entry, key uint64) ([]byte, error) {
	if !c.ix.opts.Indirect {
		return append([]byte(nil), e.val[:c.ix.lay.valSize]...), nil
	}
	for try := 0; try < maxRetries; try++ {
		ptr := dmsim.UnpackGAddr(binary.LittleEndian.Uint64(e.val[:8]))
		if ptr.IsNil() {
			break
		}
		buf := make([]byte, 8+c.ix.opts.ValueSize)
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

// writeEntryAndUnlock writes one entry of a leaf and releases the group
// lock: a combined doorbell batch without local contenders, a local
// handover otherwise (the group is contiguous on one MN, so the batch
// is always legal).
func (c *Client) writeEntryAndUnlock(leafAddr dmsim.GAddr, g int, img []byte, slot int) error {
	cellC := c.ix.lay.entryCells[slot]
	lockAddr := c.ix.groupMain(g)
	if c.cn.locks.HasWaiters(lockAddr.Pack()) {
		if err := c.dc.Write(leafAddr.Add(uint64(cellC.Off)), img[cellC.Off:cellC.End()]); err != nil {
			return err
		}
		if c.cn.locks.ReleaseHandover(c.dc, lockAddr.Pack(), 1) {
			return nil
		}
	}
	var zero [8]byte
	if err := c.dc.WriteBatch(
		[]dmsim.GAddr{leafAddr.Add(uint64(cellC.Off)), lockAddr},
		[][]byte{img[cellC.Off:cellC.End()], zero[:]},
	); err != nil {
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
	main, buddy, err := c.readGroup(g)
	if err != nil {
		c.unlockGroup(g)
		return err
	}
	lay := c.ix.lay

	type leafImg struct {
		addr dmsim.GAddr
		img  []byte
	}
	leaves := []leafImg{{c.ix.groupMain(g), main}, {c.ix.groupBuddy(g), buddy}}

	// Follow any existing chain so upserts and capacity checks see the
	// whole group.
	chain := lay.chain(buddy)
	for !chain.IsNil() {
		img, err := c.readChained(chain)
		if err != nil {
			c.unlockGroup(g)
			return err
		}
		leaves = append(leaves, leafImg{chain, img})
		chain = lay.chain(img)
	}

	// Upsert in place (preserving the slot's hopscotch bitmap, which
	// tracks keys homed at the slot, not the stored key).
	for _, lf := range leaves {
		if i, e := c.findIn(lf.img, key); i >= 0 && e.occupied {
			e.val = val
			lay.encodeEntry(lf.img, i, e, true)
			return c.writeEntryAndUnlock(lf.addr, g, lf.img, i)
		}
	}
	// Place the key: hopscotch planning per leaf in hop mode, first
	// free slot otherwise.
	for _, lf := range leaves {
		if lay.hop {
			if slots, ok := hopInsert(lay, lf.img, key, val); ok {
				return c.writeSlotsAndUnlock(lf.addr, g, lf.img, slots)
			}
			continue
		}
		for i := 0; i < lay.span; i++ {
			if !lay.decodeEntry(lf.img, i).occupied {
				lay.encodeEntry(lf.img, i, entry{occupied: true, key: key, val: val}, true)
				return c.writeEntryAndUnlock(lf.addr, g, lf.img, i)
			}
		}
	}

	// Group exhausted: chain a new overflow leaf onto the last one.
	c.obs.Splits.Inc()
	newAddr, err := c.alloc.Alloc(lay.size)
	if err != nil {
		c.unlockGroup(g)
		return err
	}
	img := make([]byte, lay.size)
	if lay.hop {
		if !newPlacer(lay, img).place(key, val) {
			c.unlockGroup(g)
			return fmt.Errorf("rolex: fresh overflow leaf rejected key %#x", key)
		}
	} else {
		lay.encodeEntry(img, 0, entry{occupied: true, key: key, val: val}, false)
	}
	if err := c.dc.Write(newAddr, img); err != nil {
		c.unlockGroup(g)
		return err
	}
	last := leaves[len(leaves)-1]
	lay.setChain(last.img, newAddr)
	nodelayout.BumpEV(last.img, lay.header)
	hc := lay.header
	if err := c.dc.Write(last.addr.Add(uint64(hc.Off)), last.img[hc.Off:hc.End()]); err != nil {
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
	main, buddy, err := c.readGroup(g)
	if err != nil {
		c.unlockGroup(g)
		return err
	}
	lay := c.ix.lay
	type leafImg struct {
		addr dmsim.GAddr
		img  []byte
	}
	leaves := []leafImg{{c.ix.groupMain(g), main}, {c.ix.groupBuddy(g), buddy}}
	chain := lay.chain(buddy)
	for !chain.IsNil() {
		img, err := c.readChained(chain)
		if err != nil {
			c.unlockGroup(g)
			return err
		}
		leaves = append(leaves, leafImg{chain, img})
		chain = lay.chain(img)
	}
	for _, lf := range leaves {
		if i, e := c.findIn(lf.img, key); i >= 0 && e.occupied {
			if val != nil {
				e.val = *val
				lay.encodeEntry(lf.img, i, e, true)
				return c.writeEntryAndUnlock(lf.addr, g, lf.img, i)
			}
			// Delete: clear occupancy but keep the slot's own bitmap;
			// in hop mode also drop the key's bit in its home entry.
			e.occupied = false
			lay.encodeEntry(lf.img, i, e, true)
			if !lay.hop {
				return c.writeEntryAndUnlock(lf.addr, g, lf.img, i)
			}
			home := lay.homeOf(key)
			hE := lay.decodeEntry(lf.img, home)
			d := ((i-home)%lay.span + lay.span) % lay.span
			hE.hopBM &^= 1 << uint(d)
			lay.encodeEntry(lf.img, home, hE, true)
			slots := []int{i}
			if home != i {
				slots = append(slots, home)
			}
			sort.Ints(slots)
			return c.writeSlotsAndUnlock(lf.addr, g, lf.img, slots)
		}
	}
	c.unlockGroup(g)
	return ErrNotFound
}

// KV is one scan result.
type KV = offroute.KV

// scanOneSided reads consecutive groups until the budget is filled;
// ROLEX's small span makes scans cheap.
func (c *Client) scanOneSided(start uint64, count int) ([]KV, error) {
	g := c.ix.route(start)
	c.chargeModel()
	var out []KV
	for ; g < c.ix.numGroups; g++ {
		main, buddy, err := c.readGroup(g)
		if err != nil {
			return nil, err
		}
		var batch []entry
		collect := func(img []byte) {
			for i := 0; i < c.ix.lay.span; i++ {
				e := c.ix.lay.decodeEntry(img, i)
				if e.occupied && e.key >= start {
					e.val = append([]byte(nil), e.val...)
					batch = append(batch, e)
				}
			}
		}
		collect(main)
		collect(buddy)
		chain := c.ix.lay.chain(buddy)
		for !chain.IsNil() {
			img, err := c.readChained(chain)
			if err != nil {
				return nil, err
			}
			collect(img)
			chain = c.ix.lay.chain(img)
		}
		sort.Slice(batch, func(i, j int) bool { return batch[i].key < batch[j].key })
		for _, e := range batch {
			v, err := c.resolve(e, e.key)
			if err != nil {
				return nil, err
			}
			out = append(out, KV{Key: e.key, Value: v})
		}
		if len(out) >= count {
			return out[:count], nil
		}
	}
	return out, nil
}
