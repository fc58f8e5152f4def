package rolex

import (
	"fmt"
	"sort"

	"chime/internal/dmsim"
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
	lay      *layout
	img      []byte
	occupied []bool
	homes    []int
}

func newPlacer(lay *layout, img []byte) *placer {
	return &placer{lay: lay, img: img, occupied: make([]bool, lay.span), homes: make([]int, lay.span)}
}

// place inserts one KV, reporting false when no hop sequence fits.
func (p *placer) place(key uint64, val []byte) bool {
	lay := p.lay
	home := lay.homeOf(key)
	moves, free, err := hopscotch.Plan(lay.span, lay.h, home,
		func(i int) bool { return p.occupied[i] },
		func(i int) int { return p.homes[i] })
	if err != nil {
		return false
	}
	for _, m := range moves {
		applyHopMove(lay, p.img, m, false)
		p.occupied[m.To], p.occupied[m.From] = true, false
		p.homes[m.To] = p.homes[m.From]
	}
	placeAt(lay, p.img, free, home, key, val, false)
	p.occupied[free] = true
	p.homes[free] = home
	return true
}

// applyHopMove relocates the entry at m.From to m.To in img, updating
// the hopscotch bitmap in the key's home entry.
func applyHopMove(lay *layout, img []byte, m hopscotch.Move, bump bool) {
	e := lay.decodeEntry(img, m.From)
	kHome := lay.homeOf(e.key)

	tgt := lay.decodeEntry(img, m.To)
	tgt.occupied, tgt.key = true, e.key
	tgt.val = append([]byte(nil), e.val...)
	lay.encodeEntry(img, m.To, tgt, bump)

	src := lay.decodeEntry(img, m.From)
	src.occupied = false
	lay.encodeEntry(img, m.From, src, bump)

	hE := lay.decodeEntry(img, kHome)
	dOld := ((m.From-kHome)%lay.span + lay.span) % lay.span
	dNew := ((m.To-kHome)%lay.span + lay.span) % lay.span
	hE.hopBM &^= 1 << uint(dOld)
	hE.hopBM |= 1 << uint(dNew)
	lay.encodeEntry(img, kHome, hE, bump)
}

// placeAt stores a new KV at slot `at` and sets its home bitmap bit.
func placeAt(lay *layout, img []byte, at, home int, key uint64, val []byte, bump bool) {
	e := lay.decodeEntry(img, at)
	e.occupied, e.key, e.val = true, key, val
	lay.encodeEntry(img, at, e, bump)
	hE := lay.decodeEntry(img, home)
	d := ((at-home)%lay.span + lay.span) % lay.span
	hE.hopBM |= 1 << uint(d)
	lay.encodeEntry(img, home, hE, bump)
}

// hopInsert plans and applies a hopscotch insert on a locked, fully
// fetched leaf image, returning the modified slot indexes, or ok=false
// when the leaf cannot absorb the key.
func hopInsert(lay *layout, img []byte, key uint64, val []byte) ([]int, bool) {
	home := lay.homeOf(key)
	moves, free, err := hopscotch.Plan(lay.span, lay.h, home,
		func(i int) bool { return lay.decodeEntry(img, i).occupied },
		func(i int) int { return lay.homeOf(lay.decodeEntry(img, i).key) })
	if err != nil {
		return nil, false
	}
	changed := map[int]bool{home: true, free: true}
	for _, m := range moves {
		kHome := lay.homeOf(lay.decodeEntry(img, m.From).key)
		applyHopMove(lay, img, m, true)
		changed[m.From], changed[m.To], changed[kHome] = true, true, true
	}
	placeAt(lay, img, free, home, key, val, true)
	slots := make([]int, 0, len(changed))
	for i := range changed {
		slots = append(slots, i)
	}
	sort.Ints(slots)
	return slots, true
}

// neighborhoodRanges returns 1-2 byte ranges of the leaf image covering
// entries [home, home+H) circularly.
type hopRange struct{ off, end int }

func (l *layout) neighborhoodRanges(home int) []hopRange {
	last := home + l.h - 1
	if last < l.span {
		return []hopRange{{l.entryCells[home].Off, l.entryCells[last].End()}}
	}
	return []hopRange{
		{l.entryCells[home].Off, l.entryCells[l.span-1].End()},
		{l.entryCells[0].Off, l.entryCells[last%l.span].End()},
	}
}

// coveredCells lists entry cells fully inside the fetched ranges.
func (l *layout) coveredCells(ranges []hopRange) []nodelayout.Cell {
	var out []nodelayout.Cell
	for _, c := range l.entryCells {
		for _, r := range ranges {
			if c.Off >= r.off && c.End() <= r.end {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// reconstructHopBitmap recomputes the expected bitmap of home from the
// keys actually present in the fetched neighborhood (the third
// synchronization level, borrowed from CHIME §4.1.2).
func (l *layout) reconstructHopBitmap(img []byte, home int) uint16 {
	var bm uint16
	for d := 0; d < l.h; d++ {
		i := (home + d) % l.span
		e := l.decodeEntry(img, i)
		if e.occupied && l.homeOf(e.key) == home {
			bm |= 1 << uint(d)
		}
	}
	return bm
}

// searchHopGroup reads the H-entry neighborhoods of a group's main and
// buddy leaves in one doorbell batch and looks the key up. found=false
// with nil error means the key is in neither neighborhood (the caller
// falls back to the overflow chain).
func (c *Client) searchHopGroup(g int, key uint64) (entry, bool, error) {
	lay := c.ix.lay
	home := lay.homeOf(key)
	ranges := lay.neighborhoodRanges(home)

	mainImg := make([]byte, lay.size)
	buddyImg := make([]byte, lay.size)
	var addrs []dmsim.GAddr
	var bufs [][]byte
	for _, r := range ranges {
		addrs = append(addrs, c.ix.groupMain(g).Add(uint64(r.off)))
		bufs = append(bufs, mainImg[r.off:r.end])
	}
	for _, r := range ranges {
		addrs = append(addrs, c.ix.groupBuddy(g).Add(uint64(r.off)))
		bufs = append(bufs, buddyImg[r.off:r.end])
	}

	for try := 0; try < maxRetries; try++ {
		if err := c.dc.ReadBatch(addrs, bufs); err != nil {
			return entry{}, false, err
		}
		cells := lay.coveredCells(ranges)
		if nodelayout.CheckVersions(mainImg, 0, cells) != nil ||
			nodelayout.CheckVersions(buddyImg, 0, cells) != nil {
			c.backoff.Yield(c.dc)
			continue
		}
		consistent := true
		for _, img := range [][]byte{mainImg, buddyImg} {
			if lay.decodeEntry(img, home).hopBM != lay.reconstructHopBitmap(img, home) {
				consistent = false
				break
			}
		}
		if !consistent {
			c.backoff.Yield(c.dc)
			continue
		}
		c.backoff.Reset()
		for _, img := range [][]byte{mainImg, buddyImg} {
			bm := lay.decodeEntry(img, home).hopBM
			for d := 0; d < lay.h; d++ {
				if bm&(1<<uint(d)) == 0 {
					continue
				}
				e := lay.decodeEntry(img, (home+d)%lay.span)
				if e.occupied && e.key == key {
					e.val = append([]byte(nil), e.val...)
					return e, true, nil
				}
			}
		}
		return entry{}, false, nil
	}
	return entry{}, false, fmt.Errorf("rolex: group %d neighborhood: retries exhausted", g)
}

// writeSlotsAndUnlock writes the changed entry cells of one leaf and
// releases the group lock — combined into one doorbell batch unless a
// local contender takes the lock by handover.
func (c *Client) writeSlotsAndUnlock(leafAddr dmsim.GAddr, g int, img []byte, slots []int) error {
	lay := c.ix.lay
	addrs := make([]dmsim.GAddr, 0, len(slots)+1)
	bufs := make([][]byte, 0, len(slots)+1)
	for _, s := range slots {
		cell := lay.entryCells[s]
		addrs = append(addrs, leafAddr.Add(uint64(cell.Off)))
		bufs = append(bufs, img[cell.Off:cell.End()])
	}
	lockAddr := c.ix.groupMain(g)
	if c.cn.locks.HasWaiters(lockAddr.Pack()) {
		if err := c.dc.WriteBatch(addrs, bufs); err != nil {
			return err
		}
		if c.cn.locks.ReleaseHandover(c.dc, lockAddr.Pack(), 1) {
			return nil
		}
	}
	var zero [8]byte
	addrs = append(addrs, lockAddr)
	bufs = append(bufs, zero[:])
	if err := c.dc.WriteBatch(addrs, bufs); err != nil {
		return err
	}
	c.cn.locks.ReleaseRemote(c.dc, lockAddr.Pack())
	return nil
}
