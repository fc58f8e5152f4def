package sherman

import (
	"bytes"
	"errors"
	"testing"

	"chime/internal/dmsim"
	"chime/internal/testsupport"
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
// not on noise; testsupport.AllocsPerOp takes the median of nine rounds,
// so a GC landing in one round does not trip them either. Decoding every
// probed slot into a fresh slice cost this search 30 allocations, this
// update 32 and this 50-key scan 371.

func TestSearchAllocsBounded(t *testing.T) {
	cl := buildAllocTree(t, 2000)
	key := uint64(700) * 7
	for i := 0; i < 3; i++ { // warm the cache and the client's op
		if _, err := cl.Search(key); err != nil {
			t.Fatal(err)
		}
	}
	avg := testsupport.AllocsPerOp(func(int) {
		if _, err := cl.Search(key); err != nil {
			t.Fatal(err)
		}
	}, nil)
	const maxAllocs = 2 // measured 1: the returned value
	if avg > maxAllocs {
		t.Fatalf("warm Search allocates %.2f objects/op, want <= %d", avg, maxAllocs)
	}
}

// The one-key writes allocate nothing: Update, Insert and Delete step
// the client's own op and cycle, whose descent, leaf image, doorbell
// lists and completions are all reused, and the local lock table keeps
// its slots by value. pinNoAllocs warms write over every index a counted
// round uses — so a leaf that must split has split — then pins it at 0.
func pinNoAllocs(t *testing.T, name string, write func(i int)) {
	t.Helper()
	for i := 0; i < testsupport.AllocRounds*testsupport.AllocRoundOps; i++ {
		write(i)
	}
	avg := testsupport.AllocsPerOp(write, nil)
	t.Logf("warm %s %.2f objects/op", name, avg)
	if avg > 0 {
		t.Errorf("warm %s allocates %.2f objects/op, want 0", name, avg)
	}
}

func TestUpdateAllocsBounded(t *testing.T) {
	cl := buildAllocTree(t, 2000)
	key, v := uint64(700)*7, val8(3)
	pinNoAllocs(t, "Update", func(int) {
		if err := cl.Update(key, v); err != nil {
			t.Fatal(err)
		}
	})
}

func TestInsertAllocsBounded(t *testing.T) {
	cl := buildAllocTree(t, 2000)
	key, v := uint64(700)*7, val8(4)
	pinNoAllocs(t, "upsert Insert", func(int) {
		if err := cl.Insert(key, v); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDeleteAllocsBounded counts a Delete with the fresh Insert that puts
// its key back, a key buildAllocTree did not load.
func TestDeleteAllocsBounded(t *testing.T) {
	cl := buildAllocTree(t, 2000)
	v := val8(5)
	pinNoAllocs(t, "Insert+Delete", func(i int) {
		k := uint64(i%1990+5)*7 + 3
		if err := cl.Insert(k, v); err != nil {
			t.Fatal(err)
		}
		if err := cl.Delete(k); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWriteBatchAllocsBounded pins a singleton batch write: one key,
// depth 1. Its op, cycle and ring are the batch writer's own and reused;
// what is left is the result slice the caller gets. The batch writer
// allocated 16 objects per singleton UpdateBatch and InsertBatch while it
// allocated its scheduler, ops and cycle per batch.
func TestWriteBatchAllocsBounded(t *testing.T) {
	cl := buildAllocTree(t, 2000)
	keys := []uint64{uint64(700) * 7}
	vals := [][]byte{val8(5)}
	for name, write := range map[string]func([]uint64, [][]byte, int) []error{
		"UpdateBatch": cl.UpdateBatch,
		"InsertBatch": cl.InsertBatch,
	} {
		for i := 0; i < 3; i++ {
			if err := write(keys, vals, 1)[0]; err != nil {
				t.Fatal(err)
			}
		}
		avg := testsupport.AllocsPerOp(func(int) {
			if err := write(keys, vals, 1)[0]; err != nil {
				t.Fatal(err)
			}
		}, nil)
		const maxAllocs = 1 // the results
		if avg > maxAllocs {
			t.Errorf("warm singleton %s allocates %.2f objects/op, want <= %d", name, avg, maxAllocs)
		}
	}
}

// TestWritesReleaseCompletions: every completion a warm write polls goes
// back to the fabric client's free list, so no handle is allocated after
// warm-up and the list stays within the deepest pipeline the client ran.
// The batch writer never released the handles of its lock, fetch and
// write polls: 1 000 singleton UpdateBatches allocated 3 000.
func TestWritesReleaseCompletions(t *testing.T) {
	cl := buildAllocTree(t, 2000)
	key := uint64(700) * 7
	v := val8(6)
	fresh := uint64(700)*7 + 3
	var keys8 []uint64
	var vals8 [][]byte
	for i := uint64(0); i < 8; i++ {
		keys8 = append(keys8, (700+50*i)*7)
		vals8 = append(vals8, v)
	}
	for name, write := range map[string]func() error{
		"Update": func() error { return cl.Update(key, v) },
		"Insert": func() error { return cl.Insert(key, v) },
		"Delete": func() error {
			if err := cl.Insert(fresh, v); err != nil {
				return err
			}
			return cl.Delete(fresh)
		},
		"UpdateBatch/1": func() error { return cl.UpdateBatch(keys8[:1], vals8[:1], 1)[0] },
		"InsertBatch/1": func() error { return cl.InsertBatch(keys8[:1], vals8[:1], 1)[0] },
		"UpdateBatch/8": func() error { return errors.Join(cl.UpdateBatch(keys8, vals8, 8)...) },
		"InsertBatch/8": func() error { return errors.Join(cl.InsertBatch(keys8, vals8, 8)...) },
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

func TestScanAllocsBounded(t *testing.T) {
	cl := buildAllocTree(t, 2000)
	start := uint64(700) * 7
	for i := 0; i < 3; i++ { // warm the cache and the client's scan scratch
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
	const maxAllocs = 4 // measured 2: the result slice and its value arena
	if avg > maxAllocs {
		t.Fatalf("warm 50-key Scan allocates %.2f objects/op, want <= %d", avg, maxAllocs)
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
