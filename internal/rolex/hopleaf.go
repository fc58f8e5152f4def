package rolex

import (
	"fmt"
	"slices"

	"chime/internal/hopscotch"
	"chime/internal/nodelayout"
)

// Hopscotch-leaf mode ("CHIME-Learned", §5.3): each ROLEX leaf is a
// hopscotch hash table, so point queries fetch an H-entry neighborhood
// from the main leaf and its buddy instead of both whole leaves. The
// learned index still cannot avoid probing two leaves per lookup — the
// reason the paper pairs hopscotch leaves with a B+ tree instead.

// placer performs local hopscotch placement into a fresh leaf image
// (bulk load and overflow-leaf builds).
type placer struct {
	im       *image
	occupied []bool
	homes    []int
}

func newPlacer(im *image) *placer {
	return &placer{im: im, occupied: make([]bool, im.lay.span), homes: make([]int, im.lay.span)}
}

// place inserts one KV, reporting false when no hop sequence fits.
func (p *placer) place(key uint64, val []byte) bool {
	lay := p.im.lay
	home := lay.homeOf(key)
	moves, free, err := hopscotch.Plan(lay.span, lay.h, home,
		func(i int) bool { return p.occupied[i] },
		func(i int) int { return p.homes[i] })
	if err != nil {
		return false
	}
	for _, m := range moves {
		p.im.applyHopMove(m, false)
		p.occupied[m.To], p.occupied[m.From] = true, false
		p.homes[m.To] = p.homes[m.From]
	}
	p.im.placeAt(free, home, key, val, false)
	p.occupied[free] = true
	p.homes[free] = home
	return true
}

// dist is the hopscotch distance from home to slot, around the leaf.
func (l *layout) dist(home, slot int) int {
	return ((slot-home)%l.span + l.span) % l.span
}

// applyHopMove relocates the entry at m.From to m.To, updating the
// hopscotch bitmap in the key's home entry; it returns that home. The
// moved value is read in place out of m.From, which put tolerates.
func (im *image) applyHopMove(m hopscotch.Move, bump bool) (kHome int) {
	lay := im.lay
	_, _, key := im.slot(m.From)
	kHome = lay.homeOf(key)
	im.put(m.To, key, im.value(m.From), bump)
	im.vacate(m.From, bump)
	_, bm, _ := im.slot(kHome)
	bm &^= 1 << uint(lay.dist(kHome, m.From))
	bm |= 1 << uint(lay.dist(kHome, m.To))
	im.setHopBM(kHome, bm, bump)
	return kHome
}

// placeAt stores a new KV at slot `at` and sets its home bitmap bit.
func (im *image) placeAt(at, home int, key uint64, val []byte, bump bool) {
	im.put(at, key, val, bump)
	_, bm, _ := im.slot(home)
	im.setHopBM(home, bm|1<<uint(im.lay.dist(home, at)), bump)
}

// hopInsert plans and applies a hopscotch insert on a locked, fully
// fetched leaf image, returning the modified slot indexes in ascending
// order, or ok=false when the leaf cannot absorb the key.
func hopInsert(im *image, key uint64, val []byte) ([]int, bool) {
	lay := im.lay
	home := lay.homeOf(key)
	moves, free, err := hopscotch.Plan(lay.span, lay.h, home,
		func(i int) bool { occupied, _, _ := im.slot(i); return occupied },
		func(i int) int { _, _, k := im.slot(i); return lay.homeOf(k) })
	if err != nil {
		return nil, false
	}
	slots := []int{home, free}
	for _, m := range moves {
		slots = append(slots, m.From, m.To, im.applyHopMove(m, true))
	}
	im.placeAt(free, home, key, val, true)
	slices.Sort(slots)
	return slices.Compact(slots), true
}

// hopRange is a byte range of the leaf image.
type hopRange struct{ off, end int }

// neighborhoodRanges returns the 1-2 byte ranges of the leaf image
// covering entries [home, home+H) circularly.
func (l *layout) neighborhoodRanges(home int) (r [2]hopRange, n int) {
	last := home + l.h - 1
	if last < l.span {
		return [2]hopRange{{l.entryCells[home].Off, l.entryCells[last].End()}}, 1
	}
	return [2]hopRange{
		{l.entryCells[home].Off, l.entryCells[l.span-1].End()},
		{l.entryCells[0].Off, l.entryCells[last%l.span].End()},
	}, 2
}

// coveredCells appends to dst the entry cells fully inside the fetched
// ranges.
func (l *layout) coveredCells(dst []nodelayout.Cell, ranges []hopRange) []nodelayout.Cell {
	for _, c := range l.entryCells {
		for _, r := range ranges {
			if c.Off >= r.off && c.End() <= r.end {
				dst = append(dst, c)
				break
			}
		}
	}
	return dst
}

// probe looks key up in a fetched neighborhood window of its home: the
// third synchronization level, borrowed from CHIME §4.1.2, first — the
// home entry's stored hopscotch bitmap must match the one reconstructed
// from the keys actually fetched, or a concurrent hop-range write was
// caught mid-flight and consistent is false — then the slots the bitmap
// names. slot is -1 when the key is absent.
//
//chime:noalloc
func (im *image) probe(home int, key uint64) (slot int, consistent bool) {
	lay := im.lay
	_, stored, _ := im.slot(home)
	var bm uint16
	slot = -1
	for d := 0; d < lay.h; d++ {
		i := (home + d) % lay.span
		occupied, _, k := im.slot(i)
		if !occupied {
			continue
		}
		if lay.homeOf(k) == home {
			bm |= 1 << uint(d)
		}
		if k == key && slot < 0 && stored&(1<<uint(d)) != 0 {
			slot = i
		}
	}
	return slot, bm == stored
}

// searchHopGroup reads the H-entry neighborhoods of a group's main and
// buddy leaves in one doorbell batch and looks the key up. slot is -1
// (with nil error) when the key is in neither neighborhood (the caller
// falls back to the overflow chain); otherwise it is key's slot in im.
func (c *Client) searchHopGroup(g int, key uint64) (im *image, slot int, err error) {
	lay := c.ix.lay
	home := lay.homeOf(key)
	rs, n := lay.neighborhoodRanges(home)
	ranges := rs[:n]

	c.group.reset()
	main := c.group.next(lay, c.ix.groupMain(g))
	buddy := c.group.next(lay, c.ix.groupBuddy(g))
	c.addrs, c.bufs = c.addrs[:0], c.bufs[:0]
	for _, lf := range c.group.leaves {
		for _, r := range ranges {
			c.addrs = append(c.addrs, lf.addr.Add(uint64(r.off)))
			c.bufs = append(c.bufs, lf.im.buf[r.off:r.end])
		}
	}
	c.covered = lay.coveredCells(c.covered[:0], ranges)

	for try := 0; try < maxRetries; try++ {
		if err := c.dc.ReadBatch(c.addrs, c.bufs); err != nil {
			return nil, -1, err
		}
		if nodelayout.CheckVersions(main.buf, 0, c.covered) != nil ||
			nodelayout.CheckVersions(buddy.buf, 0, c.covered) != nil {
			c.backoff.Yield(c.dc)
			continue
		}
		mainSlot, mainOK := main.probe(home, key)
		buddySlot, buddyOK := buddy.probe(home, key)
		if !mainOK || !buddyOK {
			c.backoff.Yield(c.dc)
			continue
		}
		c.backoff.Reset()
		if mainSlot >= 0 {
			return main, mainSlot, nil
		}
		return buddy, buddySlot, nil
	}
	return nil, -1, fmt.Errorf("rolex: group %d neighborhood: retries exhausted", g)
}

// writeSlotsAndUnlock writes the changed entry cells of one leaf and
// releases the group lock — combined into one doorbell batch unless a
// local contender takes the lock by handover.
func (c *Client) writeSlotsAndUnlock(lf groupLeaf, g int, slots []int) error {
	c.addrs, c.bufs = c.addrs[:0], c.bufs[:0]
	for _, s := range slots {
		c.addrs = append(c.addrs, lf.addr.Add(uint64(c.ix.lay.entryCells[s].Off)))
		c.bufs = append(c.bufs, lf.im.cell(s))
	}
	lockAddr := c.ix.groupMain(g)
	if c.cn.locks.HasWaiters(lockAddr.Pack()) {
		if err := c.dc.WriteBatch(c.addrs, c.bufs); err != nil {
			return err
		}
		if c.cn.locks.ReleaseHandover(c.dc, lockAddr.Pack(), 1) {
			return nil
		}
	}
	c.addrs = append(c.addrs, lockAddr)
	c.bufs = append(c.bufs, unlocked[:])
	if err := c.dc.WriteBatch(c.addrs, c.bufs); err != nil {
		return err
	}
	c.cn.locks.ReleaseRemote(c.dc, lockAddr.Pack())
	return nil
}
