package core

import (
	"bytes"
	"testing"

	"chime/internal/dmsim"
	"chime/internal/offroute"
)

// buildAllocTree loads a tree big enough to have real internal levels,
// returning a client with a warm node cache.
func buildAllocTree(tb testing.TB, n int) *Client {
	tb.Helper()
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	f := dmsim.MustNewFabric(cfg)
	ix, err := Bootstrap(f, DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	cn := ix.NewComputeNode(64<<20, 1<<20)
	cl := cn.NewClient()
	for i := 1; i <= n; i++ {
		if err := cl.Insert(uint64(i)*7, val8(uint64(i))); err != nil {
			tb.Fatal(err)
		}
	}
	return cl
}

// TestSearchAllocsBounded pins the effect of image pooling on the read
// path. A warm-cache search fetches one leaf window into a pooled
// buffer; without pooling every search allocates a full leaf image
// (plus an internal image per cache miss), which pushes the allocation
// count well past this ceiling. The bound is ~2x the measured warm
// figure so it only trips on structural regressions, not noise.
func TestSearchAllocsBounded(t *testing.T) {
	cl := buildAllocTree(t, 2000)
	key := uint64(700) * 7
	for i := 0; i < 3; i++ { // warm cache and pools
		if _, err := cl.Search(key); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := cl.Search(key); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 3 // measured 1: the returned value (the op and its path are the client's)
	if avg > maxAllocs {
		t.Fatalf("warm Search allocates %.1f objects/op, want <= %d (image pooling or in-place decode regressed?)", avg, maxAllocs)
	}
}

// TestScanAllocsBounded pins the allocation floor of a warm 50-key scan:
// the result slice and its value arena. Leaf images come from the pool,
// verb completions from the client's free list, and the window, the
// parent's names and the in-range slots are client scratch. The copying
// decoder this replaced allocated once per decoded cell — some 1,780
// objects for the same scan — and a per-leaf batch besides.
func TestScanAllocsBounded(t *testing.T) {
	cl := buildAllocTree(t, 2000)
	start := uint64(700) * 7
	for i := 0; i < 3; i++ { // warm cache, pools and the client's scan scratch
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
	const maxAllocs = 6 // measured 2; under -race sync.Pool drops some leaf images, four objects each
	if avg > maxAllocs {
		t.Fatalf("warm 50-key Scan allocates %.1f objects/op, want <= %d (a per-entry or per-leaf allocation is back)", avg, maxAllocs)
	}
}

// TestScanToAllocatesNothing: a scan into the buffer of the scan before
// it costs no allocation at all — the result and the arena are the
// caller's, everything else the client's — and returns what Scan returns.
func TestScanToAllocatesNothing(t *testing.T) {
	cl := buildAllocTree(t, 2000)
	start := uint64(700) * 7
	want, err := cl.Scan(start, 50)
	if err != nil {
		t.Fatal(err)
	}
	var buf offroute.ScanBuf
	for _, count := range []int{80, 50} { // a longer scan first: the shorter one must not keep its tail
		if err := cl.ScanTo(&buf, start, count); err != nil {
			t.Fatal(err)
		}
	}
	if len(buf.Out) != len(want) {
		t.Fatalf("ScanTo: %d results, Scan %d", len(buf.Out), len(want))
	}
	for i := range want {
		if buf.Out[i].Key != want[i].Key || !bytes.Equal(buf.Out[i].Value, want[i].Value) {
			t.Fatalf("result %d: ScanTo %v, Scan %v", i, buf.Out[i], want[i])
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := cl.ScanTo(&buf, start, 50); err != nil || len(buf.Out) != 50 {
			t.Fatalf("ScanTo: %d results, err %v", len(buf.Out), err)
		}
	})
	const maxAllocs = 4 // measured 0; under -race sync.Pool drops some leaf images, four objects each
	if avg > maxAllocs {
		t.Fatalf("warm 50-key ScanTo allocates %.1f objects/op, want <= %d", avg, maxAllocs)
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
			cfg := dmsim.DefaultConfig()
			f := dmsim.MustNewFabric(cfg)
			o := DefaultOptions()
			o.Indirect = indirect
			ix, err := Bootstrap(f, o)
			if err != nil {
				t.Fatal(err)
			}
			cl := ix.NewComputeNode(64<<20, 0).NewClient()
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

// TestInsertAllocsBounded pins image pooling on the write path: a warm
// upsert (same key re-inserted) locks, fetches one insert window into a
// pooled buffer, and writes back. Without pooling every write allocates
// a full leaf image, blowing well past this ceiling.
func TestInsertAllocsBounded(t *testing.T) {
	cl := buildAllocTree(t, 2000)
	key := uint64(700) * 7
	for i := 0; i < 3; i++ { // warm cache and pools
		if err := cl.Insert(key, val8(1)); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := cl.Insert(key, val8(2)); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 60
	if avg > maxAllocs {
		t.Fatalf("warm Insert allocates %.1f objects/op, want <= %d (write-path image pooling regressed?)", avg, maxAllocs)
	}
}

// TestUpdateAllocsBounded does the same for the update/delete window
// path (fetchLeafWindow + writeRangeAndUnlock).
func TestUpdateAllocsBounded(t *testing.T) {
	cl := buildAllocTree(t, 2000)
	key := uint64(700) * 7
	for i := 0; i < 3; i++ {
		if err := cl.Update(key, val8(1)); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := cl.Update(key, val8(3)); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 60
	if avg > maxAllocs {
		t.Fatalf("warm Update allocates %.1f objects/op, want <= %d (write-path image pooling regressed?)", avg, maxAllocs)
	}
}

func BenchmarkSearch(b *testing.B) {
	cl := buildAllocTree(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i%2000+1) * 7
		if _, err := cl.Search(k); err != nil {
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
