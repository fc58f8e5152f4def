package sherman

import (
	"bytes"
	"testing"

	"chime/internal/dmsim"
)

// buildAllocTree loads n keys (7, 14, …; key 7i holds val8(i)) and
// returns a client with a warm node cache. The lifetime guard stays off
// for tb's duration: its fresh image per fill is exactly the allocation
// these tests bound.
func buildAllocTree(tb testing.TB, n int) *Client {
	tb.Helper()
	guard := poisonRecycled
	poisonRecycled = false
	tb.Cleanup(func() { poisonRecycled = guard })
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 64 << 20
	ix, err := Bootstrap(dmsim.MustNewFabric(cfg), DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	cl := ix.NewComputeNode(64 << 20).NewClient()
	for i := 1; i <= n; i++ {
		if err := cl.Insert(uint64(i)*7, val8(uint64(i))); err != nil {
			tb.Fatal(err)
		}
	}
	return cl
}

// The bounds below are the measured warm figures plus a little slack, so
// they trip on a per-slot, per-node or per-entry allocation coming back,
// not on noise. Decoding every probed slot into a fresh slice cost this
// search 30 allocations, this update 32 and this 50-key scan 371.

func TestSearchAllocsBounded(t *testing.T) {
	cl := buildAllocTree(t, 2000)
	key := uint64(700) * 7
	for i := 0; i < 3; i++ { // warm the cache and the client's op
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
	for i := 0; i < 3; i++ { // warm the cache and the client's scan scratch
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

// TestScanResultOwnership pins the contract the value arena must keep:
// the caller owns what Scan returns. Overwriting, or appending to, one
// returned value changes neither its neighbors nor what a later scan
// returns, on the inline and the indirect path.
func TestScanResultOwnership(t *testing.T) {
	for _, indirect := range []bool{false, true} {
		name := "inline"
		if indirect {
			name = "indirect"
		}
		t.Run(name, func(t *testing.T) {
			o := DefaultOptions()
			o.Indirect = indirect
			_, cl := newTestTree(t, o)
			const n = 400
			for i := 1; i <= n; i++ {
				if err := cl.Insert(uint64(i), val8(uint64(i))); err != nil {
					t.Fatal(err)
				}
			}
			check := func(kvs []KV, what string) {
				t.Helper()
				if len(kvs) != 150 {
					t.Fatalf("%s: %d results, want 150", what, len(kvs))
				}
				for i, kv := range kvs {
					if want := uint64(i + 100); kv.Key != want || !bytes.Equal(kv.Value, val8(want)) {
						t.Fatalf("%s: result %d = key %d value %x, want key %d value %x", what, i, kv.Key, kv.Value, want, val8(want))
					}
				}
			}
			first, err := cl.Scan(100, 150)
			if err != nil {
				t.Fatal(err)
			}
			check(first, "first scan")

			// Scribble over every other value, and grow each of those
			// past its end: neither may reach a neighbor.
			for i := 0; i < len(first); i += 2 {
				for j := range first[i].Value {
					first[i].Value[j] = 0xEE
				}
				first[i].Value = append(first[i].Value, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE)
			}
			for i := 1; i < len(first); i += 2 {
				if want := uint64(i + 100); first[i].Key != want || !bytes.Equal(first[i].Value, val8(want)) {
					t.Fatalf("result %d changed when its neighbors were overwritten: key %d value %x", i, first[i].Key, first[i].Value)
				}
			}
			second, err := cl.Scan(100, 150)
			if err != nil {
				t.Fatal(err)
			}
			check(second, "scan after the first one's values were overwritten")
			for i := 1; i < len(first); i += 2 {
				if !bytes.Equal(first[i].Value, val8(uint64(i+100))) {
					t.Fatalf("an earlier scan's result %d changed when a later scan ran: %x", i, first[i].Value)
				}
			}
		})
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
