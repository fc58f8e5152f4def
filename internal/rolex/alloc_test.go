package rolex

import (
	"testing"

	"chime/internal/dmsim"
)

// buildAllocTree bulk-loads n keys (7, 14, …; key 7i holds val8(i)) and
// returns a client. The lifetime guard stays off for tb's duration: its
// fresh image per fill is exactly the allocation these tests bound.
func buildAllocTree(tb testing.TB, n int) *Client {
	tb.Helper()
	guard := poisonRecycled
	poisonRecycled = false
	tb.Cleanup(func() { poisonRecycled = guard })
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 64 << 20
	keys := make([]uint64, n)
	vals := make(map[uint64][]byte, n)
	for i := range keys {
		keys[i] = uint64(i+1) * 7
		vals[keys[i]] = val8(uint64(i + 1))
	}
	ix, err := Build(dmsim.MustNewFabric(cfg), DefaultOptions(), keys, vals)
	if err != nil {
		tb.Fatal(err)
	}
	return ix.NewComputeNode().NewClient()
}

// The bounds below are the measured warm figures plus a little slack, so
// they trip on a per-slot, per-node or per-entry allocation coming back,
// not on noise. Decoding every probed slot into a fresh slice cost this
// search 15 allocations, this update 16 and this 50-key scan 280.

func TestSearchAllocsBounded(t *testing.T) {
	cl := buildAllocTree(t, 2000)
	key := uint64(700) * 7
	for i := 0; i < 3; i++ { // warm the client's group images
		if _, err := cl.Search(key); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := cl.Search(key); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 2 // measured 1: the returned value
	if avg > maxAllocs {
		t.Fatalf("warm Search allocates %.1f objects/op, want <= %d", avg, maxAllocs)
	}
}

func TestUpdateAllocsBounded(t *testing.T) {
	cl := buildAllocTree(t, 2000)
	key := uint64(700) * 7
	val := val8(3)
	for i := 0; i < 3; i++ {
		if err := cl.Update(key, val); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := cl.Update(key, val); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 2 // measured 1: the local lock table's queue entry
	if avg > maxAllocs {
		t.Fatalf("warm Update allocates %.1f objects/op, want <= %d", avg, maxAllocs)
	}
}

func TestScanAllocsBounded(t *testing.T) {
	cl := buildAllocTree(t, 2000)
	start := uint64(700) * 7
	for i := 0; i < 3; i++ { // warm the client's group images and scan scratch
		if _, err := cl.Scan(start, 50); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		kvs, err := cl.Scan(start, 50)
		if err != nil || len(kvs) != 50 {
			t.Fatalf("Scan: %d results, err %v", len(kvs), err)
		}
	})
	const maxAllocs = 4 // measured 2: the result slice and its value arena
	if avg > maxAllocs {
		t.Fatalf("warm 50-key Scan allocates %.1f objects/op, want <= %d", avg, maxAllocs)
	}
}

func BenchmarkSearch(b *testing.B) {
	cl := buildAllocTree(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Search(uint64(i%2000+1) * 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUpdate(b *testing.B) {
	cl := buildAllocTree(b, 2000)
	val := val8(9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Update(uint64(i%2000+1)*7, val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScan(b *testing.B) {
	cl := buildAllocTree(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Scan(uint64(i%1000+1)*7, 50); err != nil {
			b.Fatal(err)
		}
	}
}
