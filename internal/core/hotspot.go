package core

import (
	"sync"
	"sync/atomic"

	"chime/internal/dmsim"
	"chime/internal/hostmem"
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
//   - An entry's fingerprint and counter live inline in its slot's
//     record, 8 bytes, so a neighborhood lookup is one map probe on the
//     packed leaf address plus H adjacent records. A leaf's block cuts
//     its span into chunks of hotChunkSlots records, one cache line, and
//     only the chunks that hold an entry exist: a leaf with one hot key
//     costs one chunk, not a span of records.
//   - The LFU victim is the root of an indexed min-heap of hotItems,
//     ordered by (key, leaf, idx), which the items carry themselves. An
//     item's heap key is its entry's counter as of the last time the heap
//     placed it, so a counter bump touches no heap state: the key goes
//     stale, but only downwards (key ≤ counter). Eviction refreshes the
//     root's key and sifts it down until the root is fresh (key ==
//     counter). A fresh root is the true minimum: every other entry x has
//     (counter, leaf, idx) ≥ (key, leaf, idx) of x ≥ the root's. The one
//     place a counter falls — the reset to 1 when a slot's occupant
//     changed — re-keys and sifts up on the spot.
//   - Chunks (hotPage a page) and blocks (hotBlockPage a page) come from
//     fixed pages recycled through free lists, and the heap is reserved
//     whole, as demand-zero pages when large: once full the buffer
//     allocates nothing, and growing it leaves no dead arrays to
//     fragment the Go heap (+30 MB of peak RSS on benchmark/'s c_fit).
//     Block pages are large for the host's sake: on c_paper, 64-block
//     pages moved the Go collector's cycles enough to step the run's
//     peak RSS up 7 MB early.
type hotspotBuffer struct {
	mu   sync.Mutex
	cap  int // max entries; 0 disables the buffer
	span int // slots per leaf (entries per leaf node)
	nc   int // chunks per leaf block

	leaves    map[uint64]int32 // packed leaf address → block number
	blocks    [][]int32        // pages of hotBlockPage blocks of nc+1 words: live count, then nc chunk numbers plus one (0: none)
	nblocks   int32
	freeBlock int32 // free blocks chain through their live word

	chunks    []*hotChunkPage
	nchunks   int32
	freeChunk int32 // free chunks chain through their block field

	heap []hotItem
	mem  *hostmem.Region // backs heap when it is large

	lookups, hits  int64 // under mu
	correct, wrong atomic.Int64
}

// Records per chunk; chunks per page; most blocks per page.
const (
	hotChunkSlots = 8
	hotPage       = 64
	hotBlockPage  = 4096
	hotMapBytes   = 1 << 20 // heap bytes from which the heap is a mapping
)

// hotRec is one slot of a leaf block.
type hotRec struct {
	counter uint32 // accesses since the entry was inserted or its fingerprint refreshed; 0 when empty
	fp      uint16
}

// hotChunkPage holds chunk c as row c%hotPage of page c/hotPage.
type hotChunkPage struct {
	rec  [hotPage][hotChunkSlots]hotRec
	pos  [hotPage][hotChunkSlots]int32 // an entry's heap position, -1 for an empty slot
	meta [hotPage]struct {
		block int32 // owning block; for a free chunk, the next free chunk
		live  int32 // entries in the chunk
	}
}

// hotItem is a heap element: an entry's sort key and its slot.
type hotItem struct {
	leaf uint64 // packed leaf address
	key  uint32 // counter when the heap last placed the entry; ≤ counter
	idx  uint16
	rec  int32 // chunk*hotChunkSlots + idx%hotChunkSlots
}

// fingerprint derives the 2-byte key fingerprint stored in the buffer.
func fingerprint(key uint64) uint16 {
	x := key * 0x9E3779B97F4A7C15
	return uint16(x >> 48)
}

// newHotspotBuffer sizes the buffer to budgetBytes for leaves of span
// entries.
func newHotspotBuffer(budgetBytes int64, span int) *hotspotBuffer {
	n := int(budgetBytes / hotspotEntryBytes)
	h := &hotspotBuffer{
		cap:       n,
		span:      span,
		nc:        (span + hotChunkSlots - 1) / hotChunkSlots,
		leaves:    make(map[uint64]int32),
		freeBlock: -1,
		freeChunk: -1,
	}
	// A large heap costs the entries it holds, and the collector does not
	// size its target by the rest.
	if b := n * hostmem.SizeOf[hotItem](); b < hotMapBytes {
		h.heap = make([]hotItem, 0, n)
	} else {
		h.mem = hostmem.Zeroed(b)
		h.heap = hostmem.View[hotItem](h.mem.Bytes(), 0, n)[:0]
	}
	return h
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
	rid := int32(idx % hotChunkSlots) // the slot's record, once its chunk is known
	h.mu.Lock()
	defer h.mu.Unlock()
	b, ok := h.leaves[pl]
	if ok {
		if c := h.block(b)[1+idx/hotChunkSlots] - 1; c >= 0 {
			if r, pos := h.slot(c*hotChunkSlots + rid); *pos >= 0 {
				if r.fp != fp {
					r.fp = fp
					r.counter = 1
				} else {
					r.counter++
				}
				if it := &h.heap[*pos]; r.counter < it.key {
					it.key = r.counter
					h.up(int(*pos))
				}
				return
			}
		}
	} else {
		b = h.allocBlock()
		h.leaves[pl] = b
	}
	// Count the new entry into its block before evicting, so a victim
	// that was this leaf's only entry does not free the block under us;
	// its chunk is found after, as the victim may free that.
	blk := h.block(b)
	blk[0]++
	if len(h.heap) >= h.cap {
		h.evict()
	}
	c := blk[1+idx/hotChunkSlots] - 1
	if c < 0 {
		c = h.allocChunk(b)
		blk[1+idx/hotChunkSlots] = c + 1
	}
	h.chunks[c/hotPage].meta[c%hotPage].live++
	rid += c * hotChunkSlots
	r, pos := h.slot(rid)
	*r, *pos = hotRec{counter: 1, fp: fp}, int32(len(h.heap))
	h.heap = append(h.heap, hotItem{leaf: pl, key: 1, idx: uint16(idx), rec: rid})
	h.up(int(*pos))
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
	h.mu.Lock()
	h.lookups++
	if b, ok := h.leaves[pl]; ok {
		chunks := h.block(b)[1:]
		for idx, left := home, hn; left > 0; {
			if idx == h.span {
				idx = 0
			}
			// The run of the window inside idx's chunk (and the span).
			o := idx % hotChunkSlots
			n := min(hotChunkSlots-o, left, h.span-idx)
			if c := chunks[idx/hotChunkSlots] - 1; c >= 0 {
				for i, r := range h.chunks[c/hotPage].rec[c%hotPage][o : o+n] {
					// An empty record's counter is 0: it never wins.
					if r.fp == fp && r.counter > bestCount {
						best, bestCount = idx+i, r.counter
					}
				}
			}
			idx, left = idx+n, left-n
		}
	}
	if best >= 0 {
		h.hits++
	}
	h.mu.Unlock()
	return best
}

// noteSpeculation records a speculative read's outcome for stats.
func (h *hotspotBuffer) noteSpeculation(correct bool) {
	if correct {
		h.correct.Add(1)
	} else {
		h.wrong.Add(1)
	}
}

// drop removes a stale hotspot after an incorrect speculation.
func (h *hotspotBuffer) drop(leaf dmsim.GAddr, idx int) {
	pl := leaf.Pack()
	h.mu.Lock()
	if b, ok := h.leaves[pl]; ok {
		if c := h.block(b)[1+idx/hotChunkSlots] - 1; c >= 0 {
			if _, pos := h.slot(c*hotChunkSlots + int32(idx%hotChunkSlots)); *pos >= 0 {
				h.remove(int(*pos))
			}
		}
	}
	h.mu.Unlock()
}

// block returns block b: its live count, then its nc chunk numbers.
func (h *hotspotBuffer) block(b int32) []int32 {
	w := h.nc + 1
	i := int(b%hotBlockPage) * w
	return h.blocks[b/hotBlockPage][i : i+w : i+w]
}

// slot returns slot rid's record and its entry's heap position; rid is
// chunk*hotChunkSlots + the slot's index in the chunk.
func (h *hotspotBuffer) slot(rid int32) (*hotRec, *int32) {
	c, i := uint32(rid)/hotChunkSlots, uint32(rid)%hotChunkSlots
	p := h.chunks[c/hotPage]
	return &p.rec[c%hotPage][i], &p.pos[c%hotPage][i]
}

func (h *hotspotBuffer) allocBlock() int32 {
	if b := h.freeBlock; b >= 0 {
		blk := h.block(b)
		h.freeBlock = blk[0]
		blk[0] = 0
		return b
	}
	b := h.nblocks
	if b%hotBlockPage == 0 {
		h.blocks = append(h.blocks, make([]int32, hotBlockPage*(h.nc+1)))
	}
	h.nblocks++
	return b
}

func (h *hotspotBuffer) allocChunk(b int32) int32 {
	c := h.freeChunk
	if c >= 0 {
		h.freeChunk = h.chunks[c/hotPage].meta[c%hotPage].block
	} else {
		if c = h.nchunks; c%hotPage == 0 {
			p := new(hotChunkPage)
			for i := range p.pos {
				p.pos[i] = [hotChunkSlots]int32{-1, -1, -1, -1, -1, -1, -1, -1}
			}
			h.chunks = append(h.chunks, p)
		}
		h.nchunks++
	}
	h.chunks[c/hotPage].meta[c%hotPage].block = b
	return c
}

// evict removes the LFU victim: the heap root, once its key is fresh.
func (h *hotspotBuffer) evict() {
	for {
		it := &h.heap[0]
		r, _ := h.slot(it.rec)
		if it.key == r.counter {
			break
		}
		it.key = r.counter
		h.down(0)
	}
	h.remove(0)
}

// remove takes the entry at heap position i out of the heap and its
// leaf's block, and frees its chunk and block when they empty.
func (h *hotspotBuffer) remove(i int) {
	it := h.heap[i]
	last := len(h.heap) - 1
	if i < last {
		h.place(i, h.heap[last])
	}
	h.heap = h.heap[:last]
	if i < last {
		h.down(i)
		h.up(i)
	}

	r, pos := h.slot(it.rec)
	*r, *pos = hotRec{}, -1
	c := it.rec / hotChunkSlots
	m := &h.chunks[c/hotPage].meta[c%hotPage]
	b := m.block
	blk := h.block(b)
	if m.live--; m.live == 0 {
		blk[1+int(it.idx)/hotChunkSlots] = 0
		m.block = h.freeChunk
		h.freeChunk = c
	}
	if blk[0]--; blk[0] == 0 {
		delete(h.leaves, it.leaf)
		blk[0] = h.freeBlock
		h.freeBlock = b
	}
}

// before orders heap items by (heap key, leaf, idx); the order is total
// because (leaf, idx) identifies an entry.
func (x *hotItem) before(y *hotItem) bool {
	if x.key != y.key {
		return x.key < y.key
	}
	if x.leaf != y.leaf {
		return x.leaf < y.leaf
	}
	return x.idx < y.idx
}

// place puts it at heap position i and tells its record.
func (h *hotspotBuffer) place(i int, it hotItem) {
	h.heap[i] = it
	_, pos := h.slot(it.rec)
	*pos = int32(i)
}

func (h *hotspotBuffer) up(i int) {
	it := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !it.before(&h.heap[p]) {
			break
		}
		h.place(i, h.heap[p])
		i = p
	}
	h.place(i, it)
}

func (h *hotspotBuffer) down(i int) {
	it, n := h.heap[i], len(h.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.heap[c+1].before(&h.heap[c]) {
			c++
		}
		if !h.heap[c].before(&it) {
			break
		}
		h.place(i, h.heap[c])
		i = c
	}
	h.place(i, it)
}

// HotspotStats is a snapshot of buffer behaviour.
type HotspotStats struct {
	Lookups, Hits         int64
	Speculations, Correct int64
	Entries, Cap          int
}

func (h *hotspotBuffer) stats() HotspotStats {
	h.mu.Lock()
	st := HotspotStats{Lookups: h.lookups, Hits: h.hits, Entries: len(h.heap), Cap: h.cap}
	h.mu.Unlock()
	st.Correct = h.correct.Load()
	st.Speculations = st.Correct + h.wrong.Load()
	return st
}
