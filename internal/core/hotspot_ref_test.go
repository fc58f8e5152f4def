package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"chime/internal/dmsim"
)

// refHotspotBuffer is the hotspot buffer as it was before the indexed
// heap: one map, an O(n) scan of it for the LFU victim on every eviction
// and one map probe per neighbourhood slot on every lookup. It is kept
// verbatim (renamed, plus lastVictim) as the oracle the differential and
// fuzz tests hold hotspotBuffer to: same lookup result, same victim on
// every eviction, same contents.
type refHotspotKey struct {
	leaf dmsim.GAddr
	idx  uint16
}

type refHotspotVal struct {
	fp      uint16
	counter uint32
}

type refHotspotBuffer struct {
	mu  sync.Mutex
	cap int // max entries; 0 disables the buffer
	m   map[refHotspotKey]*refHotspotVal

	lookups, hits         int64
	speculations, correct int64

	lastVictim *refHotspotKey // victim of the most recent record, nil if it evicted nothing
}

func newRefHotspotBuffer(budgetBytes int64) *refHotspotBuffer {
	return &refHotspotBuffer{
		cap: int(budgetBytes / hotspotEntryBytes),
		m:   make(map[refHotspotKey]*refHotspotVal),
	}
}

func (h *refHotspotBuffer) record(leaf dmsim.GAddr, idx int, key uint64) {
	h.lastVictim = nil
	if h.cap == 0 {
		return
	}
	fp := fingerprint(key)
	k := refHotspotKey{leaf: leaf, idx: uint16(idx)}
	h.mu.Lock()
	defer h.mu.Unlock()
	if v, ok := h.m[k]; ok {
		if v.fp != fp {
			v.fp = fp
			v.counter = 1
		} else {
			v.counter++
		}
		return
	}
	if len(h.m) >= h.cap {
		// Evict the least frequently used entry. Counter ties break on
		// (leaf, idx) order so the victim is a pure function of the
		// buffer's contents, not of Go's randomized map iteration —
		// eviction under pressure must not perturb same-seed replays.
		var victim refHotspotKey
		min := uint32(1<<32 - 1)
		first := true
		for kk, vv := range h.m {
			if first || vv.counter < min ||
				(vv.counter == min && (kk.leaf.Pack() < victim.leaf.Pack() ||
					(kk.leaf == victim.leaf && kk.idx < victim.idx))) {
				first = false
				min = vv.counter
				victim = kk
			}
		}
		delete(h.m, victim)
		h.lastVictim = &victim
	}
	h.m[k] = &refHotspotVal{fp: fp, counter: 1}
}

func (h *refHotspotBuffer) lookup(leaf dmsim.GAddr, key uint64, home, hn, span int) int {
	if h.cap == 0 {
		return -1
	}
	fp := fingerprint(key)
	best, bestCount := -1, uint32(0)
	h.mu.Lock()
	h.lookups++
	for d := 0; d < hn; d++ {
		idx := (home + d) % span
		if v, ok := h.m[refHotspotKey{leaf: leaf, idx: uint16(idx)}]; ok {
			if v.fp == fp && v.counter > bestCount {
				best, bestCount = idx, v.counter
			}
		}
	}
	if best >= 0 {
		h.hits++
	}
	h.mu.Unlock()
	return best
}

func (h *refHotspotBuffer) noteSpeculation(correct bool) {
	h.mu.Lock()
	h.speculations++
	if correct {
		h.correct++
	}
	h.mu.Unlock()
}

func (h *refHotspotBuffer) drop(leaf dmsim.GAddr, idx int) {
	h.mu.Lock()
	delete(h.m, refHotspotKey{leaf: leaf, idx: uint16(idx)})
	h.mu.Unlock()
}

func (h *refHotspotBuffer) stats() HotspotStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HotspotStats{
		Lookups: h.lookups, Hits: h.hits,
		Speculations: h.speculations, Correct: h.correct,
		Entries: len(h.m), Cap: h.cap,
	}
}

// hotspotPair drives a hotspotBuffer and the reference with the same
// calls and fails the test at the first call on which they disagree.
type hotspotPair struct {
	t    *testing.T
	h    *hotspotBuffer
	ref  *refHotspotBuffer
	span int
	hn   int
	step int
}

func newHotspotPair(t *testing.T, entries, span, hn int) *hotspotPair {
	budget := int64(entries) * hotspotEntryBytes
	return &hotspotPair{
		t: t, h: newHotspotBuffer(budget, span), ref: newRefHotspotBuffer(budget),
		span: span, hn: hn,
	}
}

// has reports whether the buffer holds an entry for (leaf, idx).
// posAt and recAt read slot rid's heap position and record.
func (h *hotspotBuffer) posAt(rid int32) int32 {
	_, pos := h.slot(rid)
	return *pos
}

func (h *hotspotBuffer) recAt(rid int32) hotRec {
	r, _ := h.slot(rid)
	return *r
}

func (h *hotspotBuffer) has(leaf dmsim.GAddr, idx int) bool {
	b, ok := h.leaves[leaf.Pack()]
	if !ok {
		return false
	}
	c := h.block(b)[1+idx/hotChunkSlots] - 1
	return c >= 0 && h.posAt(c*hotChunkSlots+int32(idx%hotChunkSlots)) >= 0
}

func (p *hotspotPair) record(leaf dmsim.GAddr, idx int, key uint64) {
	p.t.Helper()
	p.step++
	p.h.record(leaf, idx, key)
	p.ref.record(leaf, idx, key)
	if v := p.ref.lastVictim; v != nil && p.h.has(v.leaf, int(v.idx)) {
		p.t.Fatalf("step %d: record(%v, %d) evicted %v/%d from the reference but not from the buffer",
			p.step, leaf, idx, v.leaf, v.idx)
	}
	if got, want := len(p.h.heap), len(p.ref.m); got != want {
		p.t.Fatalf("step %d: record(%v, %d): %d entries, reference has %d", p.step, leaf, idx, got, want)
	}
}

func (p *hotspotPair) lookup(leaf dmsim.GAddr, key uint64, home int) int {
	p.t.Helper()
	p.step++
	got, want := p.h.lookup(leaf, key, home, p.hn), p.ref.lookup(leaf, key, home, p.hn, p.span)
	if got != want {
		p.t.Fatalf("step %d: lookup(%v, key %d, home %d) = %d, reference %d", p.step, leaf, key, home, got, want)
	}
	return got
}

func (p *hotspotPair) drop(leaf dmsim.GAddr, idx int) {
	p.step++
	p.h.drop(leaf, idx)
	p.ref.drop(leaf, idx)
}

func (p *hotspotPair) noteSpeculation(correct bool) {
	p.h.noteSpeculation(correct)
	p.ref.noteSpeculation(correct)
}

// checkSame compares the whole contents (every entry's fingerprint and
// live counter) and the stats, and checks the buffer's invariants.
func (p *hotspotPair) checkSame() {
	p.t.Helper()
	checkInvariants(p.t, p.h)
	got := make(map[refHotspotKey]refHotspotVal, len(p.h.heap))
	for _, it := range p.h.heap {
		r := p.h.recAt(it.rec)
		got[refHotspotKey{dmsim.UnpackGAddr(it.leaf), it.idx}] = refHotspotVal{r.fp, r.counter}
	}
	if len(got) != len(p.ref.m) {
		p.t.Fatalf("step %d: %d entries, reference has %d", p.step, len(got), len(p.ref.m))
	}
	for k, v := range p.ref.m {
		if g, ok := got[k]; !ok || g != *v {
			p.t.Fatalf("step %d: entry %v/%d = %+v (present %v), reference %+v", p.step, k.leaf, k.idx, g, ok, *v)
		}
	}
	if got, want := p.h.stats(), p.ref.stats(); got != want {
		p.t.Fatalf("step %d: stats %+v, reference %+v", p.step, got, want)
	}
}

// checkInvariants verifies the buffer's internal structure: the heap is
// ordered by the stale keys and every key is a lower bound of its live
// counter; heap positions, records, chunks, blocks and the leaf index
// refer to each other consistently; free lists account for everything
// not in use.
func checkInvariants(t *testing.T, h *hotspotBuffer) {
	t.Helper()
	if len(h.heap) > h.cap {
		t.Fatalf("%d entries exceed capacity %d", len(h.heap), h.cap)
	}
	const g = hotChunkSlots
	for i, it := range h.heap {
		if pos := h.posAt(it.rec); int(pos) != i {
			t.Fatalf("heap[%d] = slot %d whose pos is %d", i, it.rec, pos)
		}
		if r := h.recAt(it.rec); it.key > r.counter || r.counter == 0 {
			t.Fatalf("heap[%d]: heap key %d, live counter %d", i, it.key, r.counter)
		}
		if i > 0 && it.before(&h.heap[(i-1)/2]) {
			t.Fatalf("heap[%d] orders before its parent", i)
		}
		b, ok := h.leaves[it.leaf]
		if c := it.rec / g; !ok || h.block(b)[1+int(it.idx)/g] != c+1 || it.rec%g != int32(it.idx)%g || h.chunks[c/hotPage].meta[c%hotPage].block != b {
			t.Fatalf("heap[%d] (leaf %#x idx %d slot %d) not reachable through the leaf index", i, it.leaf, it.idx, it.rec)
		}
	}
	indexed, chunks := 0, 0
	for pl, b := range h.leaves {
		blk := h.block(b)
		n := 0
		for ci, c1 := range blk[1:] {
			c := c1 - 1
			if c < 0 {
				continue
			}
			chunks++
			live := 0
			for j := int32(0); j < g; j++ {
				pos, r := h.posAt(c*g+j), h.recAt(c*g+j)
				if pos < 0 {
					if r != (hotRec{}) {
						t.Fatalf("leaf %#x chunk %d slot %d: empty record %+v", pl, ci, j, r)
					}
					continue
				}
				live++
				if it := h.heap[pos]; it.leaf != pl || int32(it.idx) != int32(ci)*g+j {
					t.Fatalf("leaf %#x slot %d → heap[%d] = %+v", pl, int32(ci)*g+j, pos, it)
				}
			}
			if m := h.chunks[c/hotPage].meta[c%hotPage]; live == 0 || int(m.live) != live || m.block != b {
				t.Fatalf("leaf %#x chunk %d: %+v, %d records set, block %d", pl, c, m, live, b)
			}
			n += live
		}
		if n == 0 || int(blk[0]) != n {
			t.Fatalf("leaf %#x block %d: live %d, %d slots set", pl, b, blk[0], n)
		}
		indexed += n
	}
	if indexed != len(h.heap) {
		t.Fatalf("leaf index holds %d entries, heap %d", indexed, len(h.heap))
	}
	free := 0
	for c := h.freeChunk; c >= 0; c = h.chunks[c/hotPage].meta[c%hotPage].block {
		free++
		for j := int32(0); j < g; j++ {
			if pos, r := h.posAt(c*g+j), h.recAt(c*g+j); pos >= 0 || r != (hotRec{}) {
				t.Fatalf("free chunk %d still holds %+v at %d", c, r, pos)
			}
		}
	}
	if free+chunks != int(h.nchunks) {
		t.Fatalf("%d chunks: %d in use, %d free", h.nchunks, chunks, free)
	}
	free = 0
	for b := h.freeBlock; b >= 0; b = h.block(b)[0] {
		free++
		for _, c := range h.block(b)[1:] {
			if c != 0 {
				t.Fatalf("free block %d still holds chunk %d", b, c-1)
			}
		}
	}
	if free+len(h.leaves) != int(h.nblocks) {
		t.Fatalf("%d blocks: %d in use, %d free", h.nblocks, len(h.leaves), free)
	}
}

// hotspotDiffOp applies one operation, chosen by three small numbers, to
// both buffers. The shapes are picked to land on the cases the heap and
// the leaf index can get wrong:
//   - leaves are few enough that the buffer runs full and evicts, and
//     most counters sit at 1, so the (leaf, idx) tie-break picks the victim;
//   - every slot of a leaf is recorded under the same key, so one
//     neighbourhood holds several fingerprint matches and lookup has to
//     rank them by counter, then by distance from home;
//   - now and then a slot is recorded under the alternate key, which
//     resets a possibly high counter to 1 (the only downward move);
//   - drops aim at the heap root, the heap's last slot or a random slot.
func (p *hotspotPair) diffOp(leaves []dmsim.GAddr, kind, a, b int) {
	p.t.Helper()
	li := a % len(leaves)
	leaf, idx := leaves[li], b%p.span
	key := uint64(1 + li%3)
	switch k := kind % 16; {
	case k < 8:
		p.record(leaf, idx, key)
	case k == 8:
		p.record(leaf, idx, 99) // the slot's occupant changed
	case k < 14:
		if k == 13 {
			key = 99
		}
		if hit := p.lookup(leaf, key, idx); hit >= 0 {
			p.noteSpeculation(a%2 == 0)
		}
	default:
		if n := len(p.h.heap); n > 0 && b%4 < 2 {
			it := p.h.heap[(b%4)*(n-1)] // root, or last slot
			leaf, idx = dmsim.UnpackGAddr(it.leaf), int(it.idx)
		}
		p.drop(leaf, idx)
	}
}

// hotspotTestLeaves returns n leaf addresses, the last on another MN so
// the packed order is not the offset order.
func hotspotTestLeaves(n int) []dmsim.GAddr {
	leaves := make([]dmsim.GAddr, n)
	for i := range leaves {
		leaves[i] = haddr(uint64(4096 + 1024*i))
	}
	leaves[n-1].MN = 1
	return leaves
}

// TestHotspotVsReference drives the buffer and the O(n) reference with
// the same seeded random calls at the capacities that matter: 1 and 2
// (every heap edge case), 64, and 3 276 (c_paper's).
func TestHotspotVsReference(t *testing.T) {
	for _, entries := range []int{1, 2, 64, 3276} {
		for _, span := range []int{8, 64} {
			t.Run(fmt.Sprintf("cap%d_span%d", entries, span), func(t *testing.T) {
				p := newHotspotPair(t, entries, span, 8)
				// Four times as many slots as the buffer holds.
				leaves := hotspotTestLeaves(2 + 4*entries/span)
				rng := rand.New(rand.NewSource(int64(entries*1000 + span)))
				steps, every := 60_000, 1
				if entries > 64 {
					every = 997 // a full comparison is O(n)
				}
				for i := 0; i < steps; i++ {
					// Skew the slot choice so some counters climb high.
					a, b := rng.Intn(1<<20), rng.Intn(1<<20)
					if rng.Intn(4) > 0 {
						a, b = a%3, b%5
					}
					p.diffOp(leaves, rng.Intn(16), a, b)
					if i%every == 0 {
						p.checkSame()
					}
				}
				p.checkSame()
				if st := p.h.stats(); st.Entries != entries {
					t.Fatalf("buffer ended with %d of %d entries: the run did not keep it full", st.Entries, entries)
				}
			})
		}
	}
}

// TestHotspotRefreshMakesVictim: the one downward counter move. A hot
// entry whose slot changes occupant falls back to 1 and must become the
// next victim if (leaf, idx) orders it first — its heap key cannot stay
// at the old height.
func TestHotspotRefreshMakesVictim(t *testing.T) {
	p := newHotspotPair(t, 3, 64, 8)
	leaves := hotspotTestLeaves(3)
	for i := 0; i < 50; i++ {
		p.record(leaves[0], 1, 7)
	}
	p.record(leaves[1], 2, 7)
	p.record(leaves[1], 3, 7)
	p.record(leaves[2], 4, 7) // evicts leaves[1]/2; sifts leaves[0]/1 to key 50
	p.checkSame()
	p.record(leaves[0], 1, 8) // refresh: 50 → 1
	p.checkSame()
	p.record(leaves[1], 5, 7) // all counters 1: smallest (leaf, idx) goes
	if p.h.has(leaves[0], 1) {
		t.Fatal("refreshed entry survived an eviction it should have lost")
	}
	p.checkSame()
}

// FuzzHotspotVsReference feeds byte-coded call sequences to the buffer
// and the reference; three bytes make one call (see diffOp). The first
// argument picks capacity and span.
func FuzzHotspotVsReference(f *testing.F) {
	f.Add(uint8(0), []byte("\x00\x00\x00\x00\x01\x01\x0e\x00\x00\x00\x02\x02"))
	f.Add(uint8(5), []byte("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"))
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		entries := []int{1, 2, 3, 8, 64}[int(shape)%5]
		span := []int{8, 64}[int(shape/5)%2]
		p := newHotspotPair(t, entries, span, 8)
		leaves := hotspotTestLeaves(2 + 4*entries/span)
		for ; len(data) >= 3; data = data[3:] {
			p.diffOp(leaves, int(data[0]), int(data[1]), int(data[2]))
			p.checkSame()
		}
	})
}
