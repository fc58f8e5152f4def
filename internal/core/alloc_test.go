package core

import (
	"bytes"
	"testing"

	"chime/internal/dmsim"
	"chime/internal/offroute"
	"chime/internal/testsupport"
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
	avg := testsupport.AllocsPerOp(func(int) {
		if _, err := cl.Search(key); err != nil {
			t.Fatal(err)
		}
	}, nil)
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
	avg := testsupport.AllocsPerOp(func(int) {
		kvs, err := cl.Scan(start, 50)
		if err != nil || len(kvs) != 50 {
			t.Fatalf("Scan: %d results, err %v", len(kvs), err)
		}
	}, nil)
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
	avg := testsupport.AllocsPerOp(func(int) {
		if err := cl.ScanTo(&buf, start, 50); err != nil || len(buf.Out) != 50 {
			t.Fatalf("ScanTo: %d results, err %v", len(buf.Out), err)
		}
	}, nil)
	const maxAllocs = 4 // measured 0; under -race sync.Pool drops some leaf images, four objects each
	if avg > maxAllocs {
		t.Fatalf("warm 50-key ScanTo allocates %.1f objects/op, want <= %d", avg, maxAllocs)
	}
}

// TestOffloadedScanAllocsBounded: a warm scan through the MN program
// over full leaves — every leaf sorts more slots than a distribution
// sort leaves to quicksort — costs no more than a one-sided one. The
// program's scan state (slots, records, sort scratch) comes from its
// pool, not from each invocation.
func TestOffloadedScanAllocsBounded(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	opts := DefaultOptions()
	opts.Offload = offroute.ModeAlways
	f := dmsim.MustNewFabric(cfg)
	ix, err := Bootstrap(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	cl := ix.NewComputeNode(64<<20, 1<<20).NewClient()
	for i := uint64(1); i <= 2000; i++ { // ascending: splits keep three quarters, so leaves hold ~48
		if err := cl.Insert(i*7, val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf offroute.ScanBuf
	start := uint64(700) * 7
	for i := 0; i < 3; i++ { // warm cache, pools and scratch
		if err := cl.ScanTo(&buf, start, 200); err != nil {
			t.Fatal(err)
		}
	}
	offBefore, _ := cl.OffloadStats()
	avg := testsupport.AllocsPerOp(func(int) {
		if err := cl.ScanTo(&buf, start, 200); err != nil || len(buf.Out) != 200 {
			t.Fatalf("ScanTo: %d results, err %v", len(buf.Out), err)
		}
	}, nil)
	if off, _ := cl.OffloadStats(); off == offBefore {
		t.Fatal("no scan was offloaded; the bound is vacuous")
	}
	maxAllocs := 2.0 // measured 1; a scan state made per invocation made 11
	if raceBuild {
		maxAllocs += 12 // sync.Pool drops scan states and leaf images it is handed: measured 7-8
	}
	if avg > maxAllocs {
		t.Fatalf("warm offloaded 200-key ScanTo allocates %.1f objects/op, want <= %.0f (per-invocation MN scan state?)", avg, maxAllocs)
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

// writeAllocSlack is what an allocation bound on a leaf write leaves
// for the race detector: under -race sync.Pool drops what it is handed,
// and a leaf image that comes back new is four objects.
func writeAllocSlack() float64 {
	if raceBuild {
		return 4
	}
	return 0
}

// freshKey is the i-th key buildAllocTree did not load, spread over
// its leaves so that no leaf gains more than a few of them.
func freshKey(i int) uint64 { return uint64(i%1990+5)*7 + 3 }

// TestInsertAllocsBounded pins the write kernels' scratch on the insert
// path. A warm upsert locks, fetches its insert window into a pooled
// image, overwrites the entry and writes back with the unlock; a fresh
// insert (no split) also plans its hop over the fetched mask. The window
// geometry, the mask, the hop plan, the changed set, the write-back
// ranges, the doorbell batch and the lock-word bytes all live in the client's
// scratch, and the write's completion goes back to the client's free
// list: neither allocates anything beyond the caller's value. The code
// this replaced made 14 objects per upsert and 13 per fresh insert.
func TestInsertAllocsBounded(t *testing.T) {
	cl := buildAllocTree(t, 2000)
	key := uint64(700) * 7
	for i := 0; i < 3; i++ { // warm cache, pools and scratch
		if err := cl.Insert(key, val8(1)); err != nil {
			t.Fatal(err)
		}
	}
	v := val8(2)
	upsert := testsupport.AllocsPerOp(func(int) {
		if err := cl.Insert(key, v); err != nil {
			t.Fatal(err)
		}
	}, nil)
	// One placement round outside the count: a fresh key whose leaf has
	// no room splits it here, so the counted rounds insert without a
	// split.
	for i := 0; i < testsupport.AllocRounds*testsupport.AllocRoundOps; i++ {
		if err := cl.Insert(freshKey(i), v); err != nil {
			t.Fatal(err)
		}
		if err := cl.Delete(freshKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	fresh := testsupport.AllocsPerOp(func(i int) {
		if err := cl.Insert(freshKey(i), v); err != nil {
			t.Fatal(err)
		}
	}, func(i int) {
		if err := cl.Delete(freshKey(i)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm upsert %.2f objects/op, fresh insert %.2f", upsert, fresh)
	if max := writeAllocSlack(); upsert > max || fresh > max {
		t.Fatalf("warm upsert allocates %.2f objects/op, fresh insert %.2f, want <= %.0f: a write kernel allocates again", upsert, fresh, max)
	}
}

// TestUpdateAllocsBounded does the same for the update path (the
// neighborhood window, the changed entry, the doorbell write+unlock): 8
// objects per op before the write kernels took client scratch.
func TestUpdateAllocsBounded(t *testing.T) {
	cl := buildAllocTree(t, 2000)
	key := uint64(700) * 7
	for i := 0; i < 3; i++ {
		if err := cl.Update(key, val8(1)); err != nil {
			t.Fatal(err)
		}
	}
	v := val8(3)
	avg := testsupport.AllocsPerOp(func(int) {
		if err := cl.Update(key, v); err != nil {
			t.Fatal(err)
		}
	}, nil)
	t.Logf("warm Update %.2f objects/op", avg)
	if max := writeAllocSlack(); avg > max {
		t.Fatalf("warm Update allocates %.2f objects/op, want <= %.0f: a write kernel allocates again", avg, max)
	}
}

// TestDeleteAllocsBounded: a delete clears the entry and its home
// entry's hop bit, so it writes back a changed set of two and the
// vacancy bit; 9 objects per op before the write kernels took client
// scratch. The key is put back outside the count.
func TestDeleteAllocsBounded(t *testing.T) {
	cl := buildAllocTree(t, 2000)
	v := val8(4)
	for i := 0; i < 3; i++ {
		if err := cl.Delete(freshKey(0)); err != nil && err != ErrNotFound {
			t.Fatal(err)
		}
		if err := cl.Insert(freshKey(0), v); err != nil {
			t.Fatal(err)
		}
	}
	avg := testsupport.AllocsPerOp(func(i int) {
		if err := cl.Delete(freshKey(i)); err != nil {
			t.Fatal(err)
		}
	}, func(i int) {
		if err := cl.Insert(freshKey(i+1), v); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm Delete %.2f objects/op", avg)
	if max := writeAllocSlack(); avg > max {
		t.Fatalf("warm Delete allocates %.2f objects/op, want <= %.0f: a write kernel allocates again", avg, max)
	}
}

// TestWriteBatchAllocsBounded pins the batch writer's singleton cycle:
// one key, depth 1, so one write cycle with a one-key write's narrow
// window. The op and the cycle come back from the batch's free lists,
// every kernel takes scratch and the completions come back from the
// fabric client's free list; what is left is the result slice — 1
// object, against 16 for UpdateBatch and 17 for InsertBatch while each
// batch allocated its ops and cycles.
func TestWriteBatchAllocsBounded(t *testing.T) {
	cl := buildAllocTree(t, 2000)
	keys := []uint64{uint64(700) * 7}
	vals := [][]byte{val8(5)}
	for _, tc := range []struct {
		name  string
		write func([]uint64, [][]byte, int) []error
		max   float64
	}{
		{"UpdateBatch", cl.UpdateBatch, 1},
		{"InsertBatch", cl.InsertBatch, 1},
	} {
		for i := 0; i < 3; i++ {
			if err := tc.write(keys, vals, 1)[0]; err != nil {
				t.Fatal(err)
			}
		}
		avg := testsupport.AllocsPerOp(func(int) {
			if err := tc.write(keys, vals, 1)[0]; err != nil {
				t.Fatal(err)
			}
		}, nil)
		t.Logf("warm singleton %s %.2f objects/op", tc.name, avg)
		if max := tc.max + writeAllocSlack(); avg > max {
			t.Fatalf("warm singleton %s allocates %.2f objects/op, want <= %.0f: a cycle kernel allocates again", tc.name, avg, max)
		}
	}
}

// TestWritesReleaseCompletions: every completion a warm write polls goes
// back to the fabric client's free list. A write that dropped its
// write-and-unlock handle unreleased left the list one short, so the
// next verb allocated a new handle — 1 000 updates, 1 000 handles. Now
// the list stays within the deepest pipeline the client ran and no
// handle is allocated after warm-up, on the synchronous path and the
// batch writer's.
func TestWritesReleaseCompletions(t *testing.T) {
	cl := buildAllocTree(t, 2000)
	keys := []uint64{uint64(700) * 7}
	vals := [][]byte{val8(6)}
	for name, write := range map[string]func() error{
		"Update":      func() error { return cl.Update(keys[0], vals[0]) },
		"UpdateBatch": func() error { return cl.UpdateBatch(keys, vals, 1)[0] },
		"InsertBatch": func() error { return cl.InsertBatch(keys, vals, 1)[0] },
	} {
		for i := 0; i < 3; i++ {
			if err := write(); err != nil {
				t.Fatal(err)
			}
		}
		_, before := testsupport.CompletionPool(cl.dc)
		for i := 0; i < 1000; i++ {
			if err := write(); err != nil {
				t.Fatal(err)
			}
		}
		free, after := testsupport.CompletionPool(cl.dc)
		if after != before {
			t.Errorf("%s: 1000 warm writes allocated %d completions: a polled handle is not released", name, after-before)
		}
		if peak := cl.dc.Stats().MaxInflight; int64(free) > peak {
			t.Errorf("%s: completion free list holds %d handles, more than the peak pipeline depth %d", name, free, peak)
		}
	}
}

// BenchmarkSearch is a warm point search over buildAllocTree's keys.
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

// BenchmarkScan is a warm 50-key scan from a key of the tree's first
// half: the whole-leaf reads, their three-level validation and the sort
// of each leaf's slots, the same shape as the baselines' BenchmarkScan.
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
