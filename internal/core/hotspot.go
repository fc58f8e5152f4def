package core

import (
	"sync"
	"sync/atomic"

	"chime/internal/dmsim"
)

// hotspotBuffer implements the hotness-aware speculative read support of
// §4.3: a small per-CN cache mapping (leaf address, entry index) to a
// key fingerprint and an access counter. Before a neighborhood read, a
// client consults the buffer for hotspots inside the target neighborhood
// whose fingerprint matches the key; on a hit it speculatively READs the
// single hottest entry instead of the whole neighborhood.
//
// Each buffer entry costs hotspotEntryBytes (leaf address 8B + key index
// 2B + fingerprint 2B + counter 4B, per Figure 11); eviction is least
// frequently used, counter ties broken on (packed leaf address, index) so
// the victim is a pure function of the buffer's contents — eviction
// under pressure must not perturb same-seed replays.
const hotspotEntryBytes = 16

// hotspotBuffer is the buffer of one CN. The paper runs it full, so
// neither record nor lookup may do work proportional to its size:
//
//   - Entries live in a slab and are found through a leaf index: one
//     map probe on the packed leaf address yields the leaf's block of
//     span slots, which holds the slab index of every recorded entry of
//     that leaf at the entry's own index. A neighborhood lookup is that
//     probe plus H adjacent slots.
//   - The LFU victim is the root of an indexed min-heap over the slab,
//     ordered by (key, leaf, idx). An entry's heap key is its counter as
//     of the last time the heap placed it, so a counter bump touches no
//     heap state: the key goes stale, but only downwards (key ≤ counter).
//     Eviction refreshes the root's key and sifts it down until the root
//     is fresh (key == counter). A fresh root is the true minimum: every
//     other entry x has (counter, leaf, idx) ≥ (key, leaf, idx) of x ≥
//     the root's. The one place a counter falls — the reset to 1 when a
//     slot's occupant changed — re-keys and sifts up on the spot.
type hotspotBuffer struct {
	mu   sync.Mutex
	cap  int // max entries; 0 disables the buffer
	span int // slots per leaf block (entries per leaf node)

	leaves    map[uint64]int32 // packed leaf address → block number
	slots     []int32          // block b is slots[b*span:(b+1)*span]: slab index, or -1
	live      []int32          // entries recorded in block b; for a free block, the next free block
	freeBlock int32

	ents    []hotspotEntry // slab; fills to cap entries, then recycles through freeEnt
	freeEnt int32
	heap    []int32 // slab indices in min-heap order

	lookups, hits         atomic.Int64
	speculations, correct atomic.Int64
}

type hotspotEntry struct {
	leaf    uint64 // packed leaf address
	counter uint32 // accesses since the entry was inserted or its fingerprint refreshed
	key     uint32 // heap key: counter when the heap last placed the entry; ≤ counter
	idx     uint16
	fp      uint16
	pos     int32 // index in heap; for a free slab slot, the next free slot
	block   int32
}

// fingerprint derives the 2-byte key fingerprint stored in the buffer.
func fingerprint(key uint64) uint16 {
	x := key * 0x9E3779B97F4A7C15
	return uint16(x >> 48)
}

// newHotspotBuffer sizes the buffer to budgetBytes for leaves of span
// entries. The slab and the heap are reserved whole. Growing them by
// append while the buffer fills leaves a trail of dead multi-MB arrays,
// and those holes fragment the Go heap enough that a later large
// allocation of the host program finds no freed run to fit in (measured
// on benchmark/'s c_fit: +30 MB of peak RSS in most runs).
func newHotspotBuffer(budgetBytes int64, span int) *hotspotBuffer {
	n := int(budgetBytes / hotspotEntryBytes)
	return &hotspotBuffer{
		cap:       n,
		span:      span,
		leaves:    make(map[uint64]int32),
		freeBlock: -1,
		ents:      make([]hotspotEntry, 0, n),
		freeEnt:   -1,
		heap:      make([]int32, 0, n),
	}
}

// record updates the buffer after a remote KV entry access: bump an
// existing hotspot (or refresh it when the fingerprint is stale), insert
// a new one, evicting the LFU victim when full (§4.3).
func (h *hotspotBuffer) record(leaf dmsim.GAddr, idx int, key uint64) {
	if h.cap == 0 {
		return
	}
	fp := fingerprint(key)
	pl := leaf.Pack()
	h.mu.Lock()
	defer h.mu.Unlock()
	b, ok := h.leaves[pl]
	if ok {
		if ei := h.block(b)[idx]; ei >= 0 {
			e := &h.ents[ei]
			if e.fp != fp {
				e.fp = fp
				e.counter = 1
			} else {
				e.counter++
			}
			if e.counter < e.key {
				e.key = e.counter
				h.up(int(e.pos))
			}
			return
		}
	} else {
		b = h.allocBlock()
		h.leaves[pl] = b
	}
	// Count the new entry into its block before evicting, so a victim
	// that was this leaf's only entry does not free the block under us.
	h.live[b]++
	if len(h.heap) >= h.cap {
		h.evict()
	}
	ei := h.allocEntry()
	h.ents[ei] = hotspotEntry{
		leaf: pl, counter: 1, key: 1, idx: uint16(idx), fp: fp,
		pos: int32(len(h.heap)), block: b,
	}
	h.block(b)[idx] = ei
	h.heap = append(h.heap, ei)
	h.up(len(h.heap) - 1)
}

// lookup returns the hottest recorded entry index within the
// neighborhood [home, home+hn) (circular over the leaf's span; home is
// in [0, span)) whose fingerprint matches key, or -1. Equally hot
// matches resolve to the one nearest home.
func (h *hotspotBuffer) lookup(leaf dmsim.GAddr, key uint64, home, hn int) int {
	if h.cap == 0 {
		return -1
	}
	fp := fingerprint(key)
	pl := leaf.Pack()
	best, bestCount := -1, uint32(0)
	h.lookups.Add(1)
	h.mu.Lock()
	if b, ok := h.leaves[pl]; ok {
		blk := h.block(b)
		for d, idx := 0, home; d < hn; d, idx = d+1, idx+1 {
			if idx == len(blk) {
				idx = 0
			}
			if ei := blk[idx]; ei >= 0 {
				if e := &h.ents[ei]; e.fp == fp && e.counter > bestCount {
					best, bestCount = idx, e.counter
				}
			}
		}
	}
	h.mu.Unlock()
	if best >= 0 {
		h.hits.Add(1)
	}
	return best
}

// noteSpeculation records a speculative read's outcome for stats.
func (h *hotspotBuffer) noteSpeculation(correct bool) {
	h.speculations.Add(1)
	if correct {
		h.correct.Add(1)
	}
}

// drop removes a stale hotspot after an incorrect speculation.
func (h *hotspotBuffer) drop(leaf dmsim.GAddr, idx int) {
	pl := leaf.Pack()
	h.mu.Lock()
	if b, ok := h.leaves[pl]; ok {
		if ei := h.block(b)[idx]; ei >= 0 {
			h.remove(ei)
		}
	}
	h.mu.Unlock()
}

// block returns leaf block b's slots.
func (h *hotspotBuffer) block(b int32) []int32 {
	return h.slots[int(b)*h.span : (int(b)+1)*h.span]
}

func (h *hotspotBuffer) allocBlock() int32 {
	if b := h.freeBlock; b >= 0 {
		h.freeBlock = h.live[b]
		h.live[b] = 0
		return b
	}
	b := int32(len(h.live))
	h.live = append(h.live, 0)
	for i := 0; i < h.span; i++ {
		h.slots = append(h.slots, -1)
	}
	return b
}

func (h *hotspotBuffer) allocEntry() int32 {
	if ei := h.freeEnt; ei >= 0 {
		h.freeEnt = h.ents[ei].pos
		return ei
	}
	h.ents = append(h.ents, hotspotEntry{})
	return int32(len(h.ents) - 1)
}

// evict removes the LFU victim: the heap root, once its key is fresh.
func (h *hotspotBuffer) evict() {
	for {
		e := &h.ents[h.heap[0]]
		if e.key == e.counter {
			break
		}
		e.key = e.counter
		h.down(0)
	}
	h.remove(h.heap[0])
}

// remove takes slab entry ei out of the heap and the leaf index and
// frees its slot, and its leaf's block when that was the last entry.
func (h *hotspotBuffer) remove(ei int32) {
	e := &h.ents[ei]
	i, last := int(e.pos), len(h.heap)-1
	h.swap(i, last)
	h.heap = h.heap[:last]
	if i < last {
		h.down(i)
		h.up(i)
	}

	b := e.block
	h.block(b)[e.idx] = -1
	if h.live[b]--; h.live[b] == 0 {
		delete(h.leaves, e.leaf)
		h.live[b] = h.freeBlock
		h.freeBlock = b
	}
	e.pos = h.freeEnt
	h.freeEnt = ei
}

// less orders slab entries a and b by (heap key, leaf, idx); the order is
// total because (leaf, idx) identifies an entry.
func (h *hotspotBuffer) less(a, b int32) bool {
	x, y := &h.ents[a], &h.ents[b]
	if x.key != y.key {
		return x.key < y.key
	}
	if x.leaf != y.leaf {
		return x.leaf < y.leaf
	}
	return x.idx < y.idx
}

func (h *hotspotBuffer) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.ents[h.heap[i]].pos = int32(i)
	h.ents[h.heap[j]].pos = int32(j)
}

func (h *hotspotBuffer) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.heap[i], h.heap[p]) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *hotspotBuffer) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h.heap) {
			break
		}
		if c+1 < len(h.heap) && h.less(h.heap[c+1], h.heap[c]) {
			c++
		}
		if !h.less(h.heap[c], h.heap[i]) {
			break
		}
		h.swap(i, c)
		i = c
	}
}

// HotspotStats is a snapshot of buffer behaviour.
type HotspotStats struct {
	Lookups, Hits         int64
	Speculations, Correct int64
	Entries, Cap          int
}

func (h *hotspotBuffer) stats() HotspotStats {
	h.mu.Lock()
	entries := len(h.heap)
	h.mu.Unlock()
	return HotspotStats{
		Lookups: h.lookups.Load(), Hits: h.hits.Load(),
		Speculations: h.speculations.Load(), Correct: h.correct.Load(),
		Entries: entries, Cap: h.cap,
	}
}
