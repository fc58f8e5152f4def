package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"chime/internal/dmsim"
	"chime/internal/ycsb"
)

// The hotspot micro-benchmarks model the two regimes of benchmark/'s
// workloads over 100 k slots (1 563 leaves of span 64, H 8): c_paper's
// buffer of 3 276 entries, always full, where record pays an eviction on
// most calls, and the fit budgets, where the buffer holds every slot and
// lookup is the cost. `make bench-core` runs them at -cpu 1,2.
const (
	benchHotspotSlots  = 100_000
	benchHotspotLeaves = (benchHotspotSlots + 63) / 64
	benchPaperEntries  = 3276
)

// hotspotSlot maps a popularity rank to a slot, spreading neighbouring
// ranks over different leaves as hashed keys do.
func hotspotSlot(rank uint64) (leaf dmsim.GAddr, idx int) {
	return haddr(4096 + 1024*(rank%benchHotspotLeaves)), int(rank / benchHotspotLeaves % 64)
}

// zipfRanks returns n Zipf(0.99) ranks over the benchmark's slots.
func zipfRanks(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	z := ycsb.NewZipfian(benchHotspotSlots, 0.99)
	ranks := make([]uint64, n)
	for i := range ranks {
		ranks[i] = z.Next(rng.Float64())
	}
	return ranks
}

// fullPaperBuffer returns a c_paper-sized buffer in its steady state:
// full, slab and leaf blocks grown, counters spread by a Zipf stream.
func fullPaperBuffer(ranks []uint64) *hotspotBuffer {
	h := newHotspotBuffer(benchPaperEntries*hotspotEntryBytes, 64)
	for _, r := range ranks {
		leaf, idx := hotspotSlot(r)
		h.record(leaf, idx, r)
	}
	return h
}

// BenchmarkHotspotRecordFull: record on a full buffer under Zipf 0.99,
// the call 80 % of c_paper's CPU samples sat in when the victim was found
// by scanning the map.
func BenchmarkHotspotRecordFull(b *testing.B) {
	ranks := zipfRanks(1<<16, 1)
	h := fullPaperBuffer(ranks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ranks[i&(1<<16-1)]
		leaf, idx := hotspotSlot(r)
		h.record(leaf, idx, r)
	}
}

var hotspotSink int

// BenchmarkHotspotLookup: a neighbourhood lookup (H 8, span 64) on a
// buffer that holds three of every four slots, as the fit budgets do.
// hit finds the key's own slot; miss asks for a key no slot carries.
func BenchmarkHotspotLookup(b *testing.B) {
	h := newHotspotBuffer(2<<20, 64)
	for r := uint64(0); r < benchHotspotSlots; r++ {
		if r%4 != 3 {
			leaf, idx := hotspotSlot(r)
			h.record(leaf, idx, r)
		}
	}
	ranks := zipfRanks(1<<16, 2)
	for _, bc := range []struct {
		name string
		keep func(r uint64) bool
		key  func(r uint64) uint64
	}{
		{"hit", func(r uint64) bool { return r%4 != 3 }, func(r uint64) uint64 { return r }},
		{"miss", func(uint64) bool { return true }, func(r uint64) uint64 { return r + 1<<40 }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := ranks[i&(1<<16-1)]
				if !bc.keep(r) {
					r--
				}
				leaf, idx := hotspotSlot(r)
				hotspotSink += h.lookup(leaf, bc.key(r), (idx+60)%64, 8)
			}
		})
	}
}

// BenchmarkHotspotSearchParallel: what a c_paper search does to the
// buffer — lookup, and on a miss the record that follows the window
// read — from GOMAXPROCS goroutines sharing one full buffer. Run with
// -cpu 1,2: the second thread shows what the one mutex costs.
func BenchmarkHotspotSearchParallel(b *testing.B) {
	ranks := zipfRanks(1<<16, 1)
	h := fullPaperBuffer(ranks)
	var next atomic.Int64 // each goroutine starts elsewhere in the stream
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(7919))
		for pb.Next() {
			r := ranks[i&(1<<16-1)]
			i++
			leaf, idx := hotspotSlot(r)
			if h.lookup(leaf, r, (idx+60)%64, 8) < 0 {
				h.record(leaf, idx, r)
			}
		}
	})
}

// TestHotspotSteadyStateZeroAllocs: once the buffer is full, its slab,
// heap and leaf blocks are as large as they get — an insert reuses the
// victim's slot (and its leaf block, when the victim was the leaf's last
// entry), so neither record nor lookup allocates. A run is 100 calls
// (about 25 of the records insert): AllocsPerRun rounds down, and one
// allocation per insert must not hide behind that.
func TestHotspotSteadyStateZeroAllocs(t *testing.T) {
	ranks := zipfRanks(1<<16, 1)
	h := fullPaperBuffer(ranks)
	i := 0
	hundred := func(call func(leaf dmsim.GAddr, idx int, r uint64)) func() {
		return func() {
			for n := 0; n < 100; n++ {
				r := ranks[i&(1<<16-1)]
				i++
				leaf, idx := hotspotSlot(r)
				call(leaf, idx, r)
			}
		}
	}
	if n := testing.AllocsPerRun(500, hundred(h.record)); n != 0 {
		t.Errorf("record on a full buffer: %v allocs per 100 calls, want 0", n)
	}
	if n := testing.AllocsPerRun(500, hundred(func(leaf dmsim.GAddr, idx int, r uint64) {
		hotspotSink += h.lookup(leaf, r, (idx+60)%64, 8)
	})); n != 0 {
		t.Errorf("lookup: %v allocs per 100 calls, want 0", n)
	}
	if st := h.stats(); st.Entries != benchPaperEntries {
		t.Fatalf("buffer holds %d of %d entries: not the steady state", st.Entries, benchPaperEntries)
	}
}

// TestHotspotConcurrentChurn has several goroutines record, look up,
// drop and read stats on one small, full buffer at once — every call
// that takes the mutex and every atomic counter — and then checks the
// structure and that no call was lost from the counters. Run under
// -race -cpu 1,2 (make race).
func TestHotspotConcurrentChurn(t *testing.T) {
	const workers, calls = 4, 20_000
	h := newHotspotBuffer(64*hotspotEntryBytes, 64)
	leaves := hotspotTestLeaves(6)
	var wg sync.WaitGroup
	var lookups, hits [workers]int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < calls; i++ {
				leaf, idx := leaves[rng.Intn(len(leaves))], rng.Intn(64)
				key := uint64(rng.Intn(3))
				switch rng.Intn(8) {
				case 0:
					h.drop(leaf, idx)
				case 1, 2, 3:
					lookups[w]++
					if h.lookup(leaf, key, idx, 8) >= 0 {
						hits[w]++
						h.noteSpeculation(i%2 == 0)
					}
				case 4:
					if st := h.stats(); st.Entries > st.Cap {
						t.Errorf("%d entries in a buffer of %d", st.Entries, st.Cap)
					}
				default:
					h.record(leaf, idx, key)
				}
			}
		}(w)
	}
	wg.Wait()
	checkInvariants(t, h)
	var wantLookups, wantHits int64
	for w := 0; w < workers; w++ {
		wantLookups += lookups[w]
		wantHits += hits[w]
	}
	if st := h.stats(); st.Lookups != wantLookups || st.Hits != wantHits || st.Speculations != wantHits {
		t.Fatalf("stats %+v, want %d lookups and %d hits and speculations", st, wantLookups, wantHits)
	}
}
