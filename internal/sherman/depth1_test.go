package sherman

import (
	"bytes"
	"errors"
	"testing"

	"chime/internal/dmsim"
	"chime/internal/nodelayout"
	"chime/internal/obs"
)

// depth1Tree builds one deterministic tree and a fresh client on a fresh
// compute node to read it with.
func depth1Tree(t *testing.T, opts Options, cacheBytes int64) *Client {
	t.Helper()
	ix := newSyncIndex(t, opts)
	loader := ix.NewComputeNode(64 << 20).NewClient()
	for i := uint64(1); i <= 3000; i++ {
		if err := loader.Insert(i*5, val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	return ix.NewComputeNode(cacheBytes).NewClient()
}

// TestDepth1SearchEqualsSearchBatch pins "sync = depth 1": N Searches
// and N one-key SearchBatches at depth 1 over the same tree and key
// stream are the same verbs at the same virtual times — same final
// clock, same ClientStats, same cache counters, same results — because
// they are the same state machine.
func TestDepth1SearchEqualsSearchBatch(t *testing.T) {
	for _, tc := range []struct {
		name       string
		indirect   bool
		cacheBytes int64
	}{
		{"cached", false, 64 << 20},
		{"cold", false, 0},
		{"indirect", true, 64 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Indirect = tc.indirect
			a, b := depth1Tree(t, opts, tc.cacheBytes), depth1Tree(t, opts, tc.cacheBytes)
			for i := uint64(0); i < 2000; i++ {
				k := (i*2654435761%3000 + 1) * 5
				if i%11 == 0 {
					k++ // absent
				}
				va, ea := a.Search(k)
				vs, es := b.SearchBatch([]uint64{k}, 1)
				if !bytes.Equal(va, vs[0]) || !errors.Is(es[0], ea) {
					t.Fatalf("key %d: Search = (%x, %v), SearchBatch = (%x, %v)", k, va, ea, vs[0], es[0])
				}
			}
			if an, bn := a.DM().Now(), b.DM().Now(); an != bn {
				t.Errorf("final clock: Search %d ns, SearchBatch depth 1 %d ns", an, bn)
			}
			if as, bs := a.DM().Stats(), b.DM().Stats(); as != bs {
				t.Errorf("ClientStats:\n Search      %+v\n SearchBatch %+v", as, bs)
			}
			ah, am, an, _ := a.cn.CacheStats()
			bh, bm, bn, _ := b.cn.CacheStats()
			if ah != bh || am != bm || an != bn {
				t.Errorf("cache hits/misses/nodes: Search %d/%d/%d, SearchBatch %d/%d/%d", ah, am, an, bh, bm, bn)
			}
		})
	}
}

// TestDepth1WritesEqualWriteBatch pins "sync = depth 1" for writes: N
// one-key Inserts and Updates and N singleton InsertBatch / UpdateBatch
// calls at depth 1 over the same tree and key stream are the same verbs
// at the same virtual times — same final clock, same ClientStats, same
// cache counters, same results, with upserts, fresh keys that split
// their leaves and absent keys — because they step the same write
// engine.
func TestDepth1WritesEqualWriteBatch(t *testing.T) {
	for _, tc := range []struct {
		name       string
		mut        func(*Options)
		cacheBytes int64
	}{
		{"cached", func(*Options) {}, 64 << 20},
		{"cold", func(*Options) {}, 0},
		{"indirect", func(o *Options) { o.Indirect = true }, 64 << 20},
		{"lease_locks", func(o *Options) { o.LeaseLocks = true }, 64 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			tc.mut(&opts)
			a, b := depth1Tree(t, opts, tc.cacheBytes), depth1Tree(t, opts, tc.cacheBytes)
			for i := uint64(0); i < 3000; i++ {
				k := (i*2654435761%3000 + 1) * 5
				v := [][]byte{val8(i)}
				var ea, eb error
				if i%3 == 0 {
					k += i % 2 // odd i: absent
					ea, eb = a.Update(k, v[0]), b.UpdateBatch([]uint64{k}, v, 1)[0]
				} else {
					k += i % 5 // 0: an upsert, else a fresh key
					ea, eb = a.Insert(k, v[0]), b.InsertBatch([]uint64{k}, v, 1)[0]
				}
				if !errors.Is(eb, ea) {
					t.Fatalf("op %d, key %d: one-key write = %v, singleton batch = %v", i, k, ea, eb)
				}
			}
			if an, bn := a.DM().Now(), b.DM().Now(); an != bn {
				t.Errorf("final clock: one-key writes %d ns, singleton batches at depth 1 %d ns", an, bn)
			}
			if as, bs := a.DM().Stats(), b.DM().Stats(); as != bs {
				t.Errorf("ClientStats:\n one-key %+v\n batch   %+v", as, bs)
			}
			ah, am, an, _ := a.cn.CacheStats()
			bh, bm, bn, _ := b.cn.CacheStats()
			if ah != bh || am != bm || an != bn {
				t.Errorf("cache hits/misses/nodes: one-key %d/%d/%d, batch %d/%d/%d", ah, am, an, bh, bm, bn)
			}
		})
	}
}

// tearOnce is a fault injector that tears one node under a reader: just
// before the reader's nth READ it has a second client overwrite the
// back half of the node at addr with a copy whose node version is
// bumped, and just before the READ after that it puts the original
// back — so exactly one fetch of the node fails its version check.
type tearOnce struct {
	reader         int64
	nth            int64
	w              *dmsim.Client
	addr           dmsim.GAddr
	good, torn     []byte
	reads, touched int64
}

func (f *tearOnce) Decide(v dmsim.VerbInfo) dmsim.FaultDecision {
	if v.Client != f.reader || v.Class != dmsim.VerbRead {
		return dmsim.FaultDecision{}
	}
	f.reads++
	half := len(f.good) / 2
	img := f.torn
	switch f.reads {
	case f.nth:
	case f.nth + 1:
		img = f.good
	default:
		return dmsim.FaultDecision{}
	}
	if err := f.w.Write(f.addr.Add(uint64(half)), img[half:]); err != nil {
		panic(err)
	}
	f.touched++
	return dmsim.FaultDecision{}
}

func (*tearOnce) ObserveCAS(dmsim.CASInfo) {}

// holdLock is a fault injector standing in for another CN's writer that
// holds one leaf lock: the word carries the lock bit from before the
// test starts until just before the writer's (n+1)-th atomic, when the
// holder's release writes the free word back. The writer's first n lock
// CASes fail.
type holdLock struct {
	writer  int64
	n       int64
	w       *dmsim.Client
	addr    dmsim.GAddr
	free    []byte
	atomics int64
}

func (h *holdLock) Decide(v dmsim.VerbInfo) dmsim.FaultDecision {
	if v.Client != h.writer || v.Class != dmsim.VerbAtomic {
		return dmsim.FaultDecision{}
	}
	if h.atomics++; h.atomics == h.n+1 {
		if err := h.w.Write(h.addr, h.free); err != nil {
			panic(err)
		}
	}
	return dmsim.FaultDecision{}
}

func (*holdLock) ObserveCAS(dmsim.CASInfo) {}

// TestBatchPathsCountTornReadsAndSiblingChases: the batch entry points
// run the same descent and leaf stage as the synchronous ones, so a torn
// internal-node read and a half-split sibling chase met under
// SearchBatch / InsertBatch / UpdateBatch show up in the obs counters
// (they never did while the batch engines were separate copies), and so
// does a failed lock CAS of a batch write (the batch writers counted
// none).
func TestBatchPathsCountTornReadsAndSiblingChases(t *testing.T) {
	for _, path := range []string{"SearchBatch", "UpdateBatch", "InsertBatch"} {
		t.Run(path, func(t *testing.T) {
			opts := DefaultOptions()
			opts.SpanSize = 16
			ix := newSyncIndex(t, opts)
			sink := obs.NewSink(false)
			cn := ix.NewComputeNode(64 << 20)
			cn.SetObserver(sink)
			cl := cn.NewClient()
			w := ix.NewComputeNode(64 << 20).NewClient()
			batch := func(keys []uint64) {
				t.Helper()
				vals := make([][]byte, len(keys))
				for i, k := range keys {
					vals[i] = val8(k)
				}
				var errs []error
				switch path {
				case "SearchBatch":
					_, errs = cl.SearchBatch(keys, 4)
				case "UpdateBatch":
					errs = cl.UpdateBatch(keys, vals, 4)
				default:
					errs = cl.InsertBatch(keys, vals, 4)
				}
				for i, err := range errs {
					if err != nil {
						t.Fatalf("%s(%d): %v", path, keys[i], err)
					}
				}
			}
			counter := func(name string) int64 { return sink.Registry().Counter(name).Load() }

			const n = 600
			var keys []uint64
			for i := uint64(1); i <= n; i++ {
				keys = append(keys, i*16)
				if err := cl.Insert(i*16, val8(i)); err != nil {
					t.Fatal(err)
				}
			}
			batch(keys) // warm this CN's node cache
			if cl.rootLevel < 1 {
				t.Fatal("tree has no internal level")
			}

			// Half-split chases: a writer on another CN splits leaves; the
			// reader's cached parents still route to the left halves.
			for i := uint64(1); i <= n; i++ {
				for j := uint64(1); j <= 3; j++ {
					if err := w.Insert(i*16+j, val8(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			chases0 := counter(obs.NameSiblingChase)
			batch(keys)
			if got := counter(obs.NameSiblingChase) - chases0; got == 0 {
				t.Errorf("%s chased no sibling across the split leaves (obs %s did not move)", path, obs.NameSiblingChase)
			}

			// A torn internal read: drop the root from the cache so the next
			// descent fetches it, and tear that fetch once.
			root := cl.rootAddr
			good := make([]byte, ix.inner.size)
			if err := w.DM().Read(root, good); err != nil {
				t.Fatal(err)
			}
			torn := append([]byte(nil), good...)
			nodelayout.BumpNV(torn, ix.inner.allCells)
			cn.cache.Drop(root)
			inj := &tearOnce{reader: cl.DM().ID(), nth: 1, w: w.DM(), addr: root, good: good, torn: torn}
			ix.fabric.SetFaultInjector(inj)
			torn0 := counter(obs.NameTornRead)
			batch(keys[:1])
			ix.fabric.SetFaultInjector(nil)
			if inj.touched != 2 {
				t.Fatalf("injector tore/restored the root %d times, want 2 (reads seen: %d)", inj.touched, inj.reads)
			}
			if got := counter(obs.NameTornRead) - torn0; got != 1 {
				t.Errorf("%s: obs %s moved by %d across one torn root read, want 1", path, obs.NameTornRead, got)
			}

			// A contended leaf lock: another CN's writer holds the leaf of
			// keys[0] through the batch's first two lock CASes.
			if path == "SearchBatch" {
				return
			}
			leaf, _, err := cl.descend(keys[0])
			if err != nil {
				t.Fatal(err)
			}
			locked := []byte{1, 0, 0, 0, 0, 0, 0, 0}
			if err := w.DM().Write(leaf, locked); err != nil {
				t.Fatal(err)
			}
			hold := &holdLock{writer: cl.DM().ID(), n: 2, w: w.DM(), addr: leaf, free: make([]byte, 8)}
			ix.fabric.SetFaultInjector(hold)
			backoffs0 := counter(obs.NameLockBackoff)
			batch(keys[:1])
			ix.fabric.SetFaultInjector(nil)
			if got := counter(obs.NameLockBackoff) - backoffs0; got != 2 {
				t.Errorf("%s: obs %s moved by %d across two failed lock CASes, want 2", path, obs.NameLockBackoff, got)
			}
		})
	}
}
