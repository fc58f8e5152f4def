package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"chime/internal/dmsim"
	"chime/internal/ycsb"
)

func haddr(off uint64) dmsim.GAddr { return dmsim.GAddr{Off: off} }

func TestHotspotRecordAndLookup(t *testing.T) {
	h := newHotspotBuffer(10*hotspotEntryBytes, 64)
	leaf := haddr(4096)
	h.record(leaf, 3, 0xABC)
	h.record(leaf, 3, 0xABC)
	h.record(leaf, 3, 0xABC)

	// Lookup within a neighborhood containing slot 3.
	if got := h.lookup(leaf, 0xABC, 0, 8); got != 3 {
		t.Fatalf("lookup = %d, want 3", got)
	}
	// Wrong key (fingerprint mismatch) must miss.
	if got := h.lookup(leaf, 0xDEF, 0, 8); got != -1 {
		t.Fatalf("foreign key hit slot %d", got)
	}
	// Neighborhood not covering slot 3 must miss.
	if got := h.lookup(leaf, 0xABC, 8, 8); got != -1 {
		t.Fatalf("out-of-neighborhood hit %d", got)
	}
	// Different leaf must miss.
	if got := h.lookup(haddr(8192), 0xABC, 0, 8); got != -1 {
		t.Fatalf("foreign leaf hit %d", got)
	}
}

func TestHotspotHottestWins(t *testing.T) {
	h := newHotspotBuffer(10*hotspotEntryBytes, 64)
	leaf := haddr(64)
	// Two keys in the same neighborhood with colliding... use the same
	// key recorded at two slots (it moved); the hotter slot must win.
	h.record(leaf, 2, 0x77)
	for i := 0; i < 5; i++ {
		h.record(leaf, 5, 0x77)
	}
	if got := h.lookup(leaf, 0x77, 0, 8); got != 5 {
		t.Fatalf("hottest slot = %d, want 5", got)
	}
}

func TestHotspotFingerprintRefresh(t *testing.T) {
	h := newHotspotBuffer(10*hotspotEntryBytes, 64)
	leaf := haddr(64)
	for i := 0; i < 9; i++ {
		h.record(leaf, 1, 0xAAA)
	}
	// The slot's occupant changed: recording a different key must reset
	// the counter and refresh the fingerprint.
	h.record(leaf, 1, 0xBBB)
	if got := h.lookup(leaf, 0xAAA, 0, 8); got != -1 {
		t.Fatal("stale fingerprint survived occupant change")
	}
	if got := h.lookup(leaf, 0xBBB, 0, 8); got != 1 {
		t.Fatalf("new occupant not found: %d", got)
	}
}

func TestHotspotLFUEviction(t *testing.T) {
	h := newHotspotBuffer(2*hotspotEntryBytes, 64) // capacity 2
	leaf := haddr(64)
	for i := 0; i < 5; i++ {
		h.record(leaf, 0, 100) // hot
	}
	h.record(leaf, 1, 200) // cold
	h.record(leaf, 2, 300) // evicts the LFU (slot 1)
	if got := h.lookup(leaf, 100, 0, 8); got != 0 {
		t.Fatal("hot entry evicted")
	}
	if got := h.lookup(leaf, 200, 0, 8); got != -1 {
		t.Fatal("LFU entry survived past capacity")
	}
	st := h.stats()
	if st.Entries != 2 || st.Cap != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHotspotDisabled(t *testing.T) {
	h := newHotspotBuffer(0, 64)
	h.record(haddr(64), 0, 1)
	if got := h.lookup(haddr(64), 1, 0, 8); got != -1 {
		t.Fatal("disabled buffer must never hit")
	}
}

func TestHotspotDrop(t *testing.T) {
	h := newHotspotBuffer(4*hotspotEntryBytes, 64)
	leaf := haddr(64)
	h.record(leaf, 3, 9)
	h.drop(leaf, 3)
	if got := h.lookup(leaf, 9, 0, 8); got != -1 {
		t.Fatal("dropped entry still resolvable")
	}
}

// TestHotspotStaleSlotSpeculation pins the write/speculation contract
// (§4.3): a hotspot entry pointing at a slot the key no longer occupies
// (it was relocated by a concurrent insert's hop moves) must fail the
// speculative read's occupied+key validation, be dropped, and fall back
// to the window read — never serve a wrong value.
func TestHotspotStaleSlotSpeculation(t *testing.T) {
	_, cl := newTestTree(t, DefaultOptions())
	key := ycsb.KeyOf(1)
	if err := cl.Insert(key, val8(111)); err != nil {
		t.Fatal(err)
	}
	ref, err := cl.descend(key)
	if err != nil {
		t.Fatal(err)
	}
	lay := cl.ix.leaf
	home := lay.homeOf(key)
	// Poison the hotspot buffer: record the key as hot at a neighborhood
	// slot it does not occupy — exactly what a concurrent relocation
	// leaves behind.
	wrong := (home + lay.h - 1) % lay.span
	for i := 0; i < 5; i++ {
		cl.cn.hotspot.record(ref.addr, wrong, key)
	}
	if got := cl.cn.hotspot.lookup(ref.addr, key, home, lay.h); got != wrong {
		t.Fatalf("hotspot primed at %d, want %d", got, wrong)
	}
	got, err := cl.Search(key)
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint64(got) != 111 {
		t.Fatalf("stale speculation served %x", got)
	}
	if got := cl.cn.hotspot.lookup(ref.addr, key, home, lay.h); got == wrong {
		t.Fatal("failed speculative slot was not dropped")
	}
}

// TestHotspotDeletedKeySpeculation: a hot key that gets deleted must
// read back ErrNotFound, not a stale speculative hit.
func TestHotspotDeletedKeySpeculation(t *testing.T) {
	_, cl := newTestTree(t, DefaultOptions())
	key := ycsb.KeyOf(2)
	if err := cl.Insert(key, val8(5)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // make it hot
		if _, err := cl.Search(key); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Search(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted hot key: %v, want ErrNotFound", err)
	}
}

// TestHotspotRelocationByColliders drives real hop relocations: keys
// sharing (or preceding) the hot key's home slot pile into its
// neighborhood until inserts relocate entries and eventually split the
// leaf. After every insert the hot key must still read back correctly
// through whatever mix of speculation hits, validation misses, and
// window fallbacks results.
func TestHotspotRelocationByColliders(t *testing.T) {
	_, cl := newTestTree(t, DefaultOptions())
	lay := cl.ix.leaf
	key := ycsb.KeyOf(3)
	home := lay.homeOf(key)
	if err := cl.Insert(key, val8(42)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // make it hot so every Search speculates
		if _, err := cl.Search(key); err != nil {
			t.Fatal(err)
		}
	}
	// Collect colliders homed into [home-h+1, home]: their inserts need
	// free slots in the hot key's neighborhood and trigger hop moves.
	var colliders []uint64
	for id := uint64(1000); len(colliders) < 3*lay.h && id < 200000; id++ {
		k := ycsb.KeyOf(id)
		d := ((home-lay.homeOf(k))%lay.span + lay.span) % lay.span
		if k != key && d < lay.h {
			colliders = append(colliders, k)
		}
	}
	for i, k := range colliders {
		if err := cl.Insert(k, val8(uint64(i))); err != nil {
			t.Fatalf("collider %d: %v", i, err)
		}
		got, err := cl.Search(key)
		if err != nil {
			t.Fatalf("hot key lost after collider %d: %v", i, err)
		}
		if binary.LittleEndian.Uint64(got) != 42 {
			t.Fatalf("hot key corrupted after collider %d: %x", i, got)
		}
	}
}

// TestHotspotConcurrentWriteRead races writers upserting a hot key
// against speculating readers: every read must return a value some
// writer actually wrote (the entry version check is what stands between
// speculation and torn values). Run under -race this also gates the
// hotspot buffer's internal locking against the write path.
func TestHotspotConcurrentWriteRead(t *testing.T) {
	ix, err := Bootstrap(testFabric(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cn := ix.NewComputeNode(64<<20, 1<<20)
	key := ycsb.KeyOf(9)
	loader := cn.NewClient()
	if err := loader.Insert(key, val8(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // prime the hotspot entry
		if _, err := loader.Search(key); err != nil {
			t.Fatal(err)
		}
	}

	var maxWritten atomic.Uint64
	maxWritten.Store(1)
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		cl := cn.NewClient()
		for v := uint64(2); v < 1500; v++ {
			if err := cl.Insert(key, val8(v)); err != nil {
				errCh <- err
				return
			}
			maxWritten.Store(v)
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := cn.NewClient()
			for {
				select {
				case <-done:
					return
				default:
				}
				got, err := cl.Search(key)
				if err != nil {
					errCh <- err
					return
				}
				v := binary.LittleEndian.Uint64(got)
				if v < 1 || v > maxWritten.Load()+1 {
					errCh <- fmt.Errorf("reader saw value %d never written (max %d)", v, maxWritten.Load())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestNodeCacheLRUOrder(t *testing.T) {
	c := newNodeCache(3 * 100)
	n := testNode(internalHeader{valid: true})
	c.Put(haddr(1), n, 100)
	c.Put(haddr(2), n, 100)
	c.Put(haddr(3), n, 100)
	// Touch 1 so 2 becomes LRU.
	if c.Get(haddr(1)) == nil {
		t.Fatal("miss on resident node")
	}
	c.Put(haddr(4), n, 100) // evicts 2
	if c.Get(haddr(2)) != nil {
		t.Fatal("LRU victim survived")
	}
	if c.Get(haddr(1)) == nil || c.Get(haddr(3)) == nil || c.Get(haddr(4)) == nil {
		t.Fatal("wrong node evicted")
	}
}

func TestNodeCacheOversizedRejected(t *testing.T) {
	c := newNodeCache(100)
	c.Put(haddr(1), testNode(internalHeader{}), 500)
	if c.Get(haddr(1)) != nil {
		t.Fatal("oversized entry must not be cached")
	}
	s := c.Stats()
	if s.UsedBytes != 0 {
		t.Fatalf("used = %d", s.UsedBytes)
	}
}

func TestNodeCacheReplaceSameAddr(t *testing.T) {
	c := newNodeCache(1000)
	a := testNode(internalHeader{level: 1})
	b := testNode(internalHeader{level: 2})
	c.Put(haddr(1), a, 100)
	c.Put(haddr(1), b, 200)
	if got := c.Get(haddr(1)); got == nil || got.level != 2 {
		t.Fatal("replacement not visible")
	}
	if s := c.Stats(); s.UsedBytes != 200 || s.Nodes != 1 {
		t.Fatalf("accounting after replace: %+v", s)
	}
}

func TestFingerprintSpread(t *testing.T) {
	seen := map[uint16]int{}
	for k := uint64(0); k < 10000; k++ {
		seen[fingerprint(k)]++
	}
	// 10k keys over 64k fingerprint space: no value should repeat often.
	for fp, n := range seen {
		if n > 8 {
			t.Fatalf("fingerprint %#x repeats %d times", fp, n)
		}
	}
}

// TestHotspotMultiMatch: several slots of one neighborhood carry the
// key's fingerprint (the key moved, or fingerprints collide). The
// hottest wins and a tie goes to the slot nearest home, also when the
// neighborhood wraps past the span and spans several chunks.
func TestHotspotMultiMatch(t *testing.T) {
	type rec struct{ idx, times int }
	for _, tc := range []struct {
		name           string
		span, home, hn int
		recs           []rec
		want           int
	}{
		{"two, the farther hotter", 64, 10, 8, []rec{{11, 1}, {15, 3}}, 15},
		{"two tied", 64, 10, 8, []rec{{16, 2}, {12, 2}}, 12},
		{"three, the middle hottest", 64, 4, 8, []rec{{4, 2}, {7, 5}, {11, 1}}, 7},
		{"three, wrap, tied before it", 64, 60, 8, []rec{{1, 3}, {62, 3}, {63, 1}}, 62},
		{"three, wrap, hottest after it", 64, 60, 8, []rec{{61, 1}, {63, 2}, {2, 4}}, 2},
		{"two, wrap, tied across it", 64, 58, 16, []rec{{0, 2}, {59, 2}}, 59},
		{"three, whole span wraps", 8, 5, 8, []rec{{6, 1}, {4, 3}, {0, 3}}, 0},
		{"hotter ones outside", 64, 10, 8, []rec{{9, 9}, {18, 9}, {13, 1}, {17, 1}}, 13},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newHotspotPair(t, 64, tc.span, tc.hn)
			leaf := haddr(4096)
			for _, r := range tc.recs {
				for i := 0; i < r.times; i++ {
					p.record(leaf, r.idx, 0x77)
				}
			}
			p.record(leaf, (tc.home+tc.hn/2)%tc.span, 0x78) // another key in between
			if got := p.lookup(leaf, 0x77, tc.home); got != tc.want {
				t.Fatalf("lookup = %d, want %d", got, tc.want)
			}
			p.checkSame()
		})
	}
}

// footprint is the bytes the buffer's arrays hold, from their
// capacities, plus its leaf map once it has held leaves leaves.
func (h *hotspotBuffer) footprint(leaves int) int64 {
	n := int64(cap(h.heap))*int64(unsafe.Sizeof(hotItem{})) + mapBytes(leaves, 16)
	for _, p := range h.blocks {
		n += int64(cap(p)) * 4
	}
	return n + int64(len(h.chunks))*int64(unsafe.Sizeof(hotChunkPage{}))
}

// mapBytes is what a Go map of n entries of slot bytes holds: groups of
// eight slots and a control word, at most 7/8 full, doubling.
func mapBytes(n int, slot int64) int64 {
	c := 8
	for c*7/8 < n {
		c *= 2
	}
	return int64(c/8) * (8 + 8*slot)
}

// TestHotspotFootprint pins the bytes a recorded entry costs at the two
// shapes benchmark/ runs the buffer at — c_paper's full 3 276-entry
// buffer under Zipf, where most leaves hold one or two hot slots, and a
// fit budget holding three of every four slots — to no more than the
// layout before inline records held: a 32-byte slab entry and a 4-byte
// heap slot per entry of capacity, reserved whole, a block of 4 bytes per
// slot and a live count for every leaf that held an entry at once,
// counted without the slack its append growth left, and a map of 16-byte
// slots to the blocks.
func TestHotspotFootprint(t *testing.T) {
	for _, sh := range []struct {
		name  string
		h     *hotspotBuffer
		slots []uint64
	}{
		{"c_paper", newHotspotBuffer(benchPaperEntries*hotspotEntryBytes, 64), zipfRanks(1<<16, 1)},
		{"c_fit", newHotspotBuffer(2<<20, 64), nil},
	} {
		if sh.slots == nil {
			for r := uint64(0); r < benchHotspotSlots; r++ {
				if r%4 != 3 {
					sh.slots = append(sh.slots, r)
				}
			}
		}
		h, peak := sh.h, 0
		for _, r := range sh.slots {
			leaf, idx := hotspotSlot(r)
			h.record(leaf, idx, r)
			peak = max(peak, len(h.leaves))
		}
		entries := int64(len(h.heap))
		old := int64(h.cap)*(32+4) + int64(peak)*int64(4*h.span+4) + mapBytes(peak, 16)
		now := h.footprint(peak)
		t.Logf("%s: %d entries, at most %d leaves: %d → %d bytes, %.1f → %.1f per entry",
			sh.name, entries, peak, old, now, float64(old)/float64(entries), float64(now)/float64(entries))
		if now > old {
			t.Errorf("%s: %d bytes, the slab layout held %d", sh.name, now, old)
		}
	}
}
