package core

import (
	"slices"
	"testing"

	"chime/internal/dmsim"
	"chime/internal/obs"
	"chime/internal/offroute"
	"chime/internal/ycsb"
)

// Verb-count assertions for the doorbell write+unlock fusion (§4.4 /
// Sherman's combined WRITE): a leaf write must cost exactly THREE round
// trips — lock CAS, window fetch, and one fused doorbell batch carrying
// the data ranges plus the cleared lock word. An unfused path would pay
// a fourth trip for the standalone unlock WRITE.
//
// The tree is kept to a single root leaf so traversal costs no trips
// once the root is cached, making the write protocol's trips exact.

func primedRootLeaf(t *testing.T) *Client {
	t.Helper()
	_, cl := newTestTree(t, DefaultOptions())
	for i := uint64(0); i < 4; i++ {
		if err := cl.Insert(ycsb.KeyOf(i), val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Prime the cached root pointer so the measured ops pay zero
	// traversal trips.
	if _, err := cl.Search(ycsb.KeyOf(0)); err != nil {
		t.Fatal(err)
	}
	return cl
}

func tripsOf(t *testing.T, cl *Client, f func()) int64 {
	t.Helper()
	cl.DM().ResetStats()
	f()
	return cl.DM().Stats().Trips
}

func TestUpdateTripCount(t *testing.T) {
	cl := primedRootLeaf(t)
	got := tripsOf(t, cl, func() {
		if err := cl.Update(ycsb.KeyOf(1), val8(99)); err != nil {
			t.Fatal(err)
		}
	})
	if got != 3 {
		t.Fatalf("Update cost %d trips, want 3 (lock CAS + window fetch + fused write/unlock)", got)
	}
}

func TestInsertTripCount(t *testing.T) {
	cl := primedRootLeaf(t)
	got := tripsOf(t, cl, func() {
		if err := cl.Insert(ycsb.KeyOf(100), val8(1)); err != nil {
			t.Fatal(err)
		}
	})
	if got != 3 {
		t.Fatalf("Insert cost %d trips, want 3 (lock CAS + window fetch + fused write/unlock)", got)
	}
}

func TestDeleteTripCount(t *testing.T) {
	cl := primedRootLeaf(t)
	got := tripsOf(t, cl, func() {
		if err := cl.Delete(ycsb.KeyOf(2)); err != nil {
			t.Fatal(err)
		}
	})
	// Lock CAS + window fetch + fused write/unlock; a delete that may
	// have emptied the leaf adds merge-confirmation reads, so allow the
	// no-merge case only (the leaf still holds keys).
	if got != 3 {
		t.Fatalf("Delete cost %d trips, want 3", got)
	}
}

func TestInsertBatchSingletonTripCount(t *testing.T) {
	cl := primedRootLeaf(t)
	got := tripsOf(t, cl, func() {
		keys := []uint64{ycsb.KeyOf(200)}
		vals := [][]byte{val8(1)}
		if err := cl.InsertBatch(keys, vals, 1)[0]; err != nil {
			t.Fatal(err)
		}
	})
	if got != 3 {
		t.Fatalf("singleton InsertBatch cost %d trips, want 3", got)
	}
}

// TestSearchTripCount pins the exact round trips of a point query on a
// tree with one internal level, once the root pointer is known: cold
// (cache off) = the internal node + the leaf window; cached = the window
// alone; a speculative hit = the one hot cell; a misspeculation = the
// cell and then the window; indirect adds the KV block; the
// dedicated-metadata-READ ablation adds the replica's dependent read.
// SearchBatch at depth 1 is the same op minus the speculation.
func TestSearchTripCount(t *testing.T) {
	const key = 300 * 7
	plain := func(*Options) {}
	indirect := func(o *Options) { o.Indirect = true }
	noReplica := func(o *Options) { o.ReplicateMeta = false }
	makeHot := func(t *testing.T, cl *Client) {
		if _, err := cl.Search(key); err != nil { // a window read records the key's slot
			t.Fatal(err)
		}
	}
	// makeStale leaves the key hot at a neighborhood slot it does not
	// occupy: what a concurrent relocation leaves behind.
	makeStale := func(t *testing.T, cl *Client) {
		ref, err := cl.descend(key)
		if err != nil {
			t.Fatal(err)
		}
		lay := cl.ix.leaf
		home := lay.homeOf(key)
		im, _, err := cl.fetchWholeLeaf(ref.addr)
		if err != nil {
			t.Fatal(err)
		}
		at, _, _ := im.probe(home, key)
		lay.putImage(im)
		wrong := (home + lay.h - 1) % lay.span
		if wrong == at {
			wrong = home
		}
		cl.cn.hotspot.record(ref.addr, wrong, key)
	}
	for _, tc := range []struct {
		name                     string
		mut                      func(*Options)
		cacheBytes, hotspotBytes int64
		prime                    func(*testing.T, *Client)
		search, batch            int64 // trips of Search, then of SearchBatch(key, depth 1)
		specHit                  bool
	}{
		{name: "cold", mut: plain, search: 2, batch: 2},
		{name: "cached", mut: plain, cacheBytes: 64 << 20, search: 1, batch: 1},
		{name: "cold_indirect", mut: indirect, search: 3, batch: 3},
		{name: "cached_indirect", mut: indirect, cacheBytes: 64 << 20, search: 2, batch: 2},
		{name: "cold_dedicated_meta_read", mut: noReplica, search: 3, batch: 3},
		{name: "cached_dedicated_meta_read", mut: noReplica, cacheBytes: 64 << 20, search: 2, batch: 2},
		{name: "hotspot_hit", mut: plain, cacheBytes: 64 << 20, hotspotBytes: 1 << 20, prime: makeHot, search: 1, batch: 1, specHit: true},
		{name: "hotspot_hit_indirect", mut: indirect, cacheBytes: 64 << 20, hotspotBytes: 1 << 20, prime: makeHot, search: 2, batch: 2, specHit: true},
		{name: "hotspot_miss", mut: plain, cacheBytes: 64 << 20, hotspotBytes: 1 << 20, prime: makeStale, search: 2, batch: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			tc.mut(&opts)
			ix, err := Bootstrap(testFabric(t), opts)
			if err != nil {
				t.Fatal(err)
			}
			cl := ix.NewComputeNode(tc.cacheBytes, tc.hotspotBytes).NewClient()
			for i := uint64(1); i <= 500; i++ {
				if err := cl.Insert(i*7, val8(i)); err != nil {
					t.Fatal(err)
				}
			}
			if cl.rootLevel != 1 {
				t.Fatalf("tree has %d internal levels, the counts assume 1", cl.rootLevel)
			}
			if tc.prime != nil {
				tc.prime(t, cl)
			}
			correct0 := cl.cn.HotspotStats().Correct
			got := tripsOf(t, cl, func() {
				if _, err := cl.Search(key); err != nil {
					t.Fatal(err)
				}
			})
			if got != tc.search {
				t.Errorf("Search cost %d trips, want %d", got, tc.search)
			}
			if hit := cl.cn.HotspotStats().Correct-correct0 == 1; hit != tc.specHit {
				t.Errorf("speculative hit = %v, want %v", hit, tc.specHit)
			}
			got = tripsOf(t, cl, func() {
				if _, errs := cl.SearchBatch([]uint64{key}, 1); errs[0] != nil {
					t.Fatal(errs[0])
				}
			})
			if got != tc.batch {
				t.Errorf("SearchBatch(1 key, depth 1) cost %d trips, want %d", got, tc.batch)
			}
		})
	}
}

// chainLeaf is one leaf of a tree as a chain walk finds it: its address
// and its keys in order.
type chainLeaf struct {
	addr dmsim.GAddr
	keys []uint64
}

// walkChain reads the whole leaf chain, leftmost leaf first.
func walkChain(t *testing.T, cl *Client) []chainLeaf {
	t.Helper()
	ref, err := cl.descend(0)
	if err != nil {
		t.Fatal(err)
	}
	var chain []chainLeaf
	for addr := ref.addr; !addr.IsNil(); {
		im, slots, err := cl.readLeafForScan(addr, 0)
		if err != nil {
			t.Fatal(err)
		}
		leaf := chainLeaf{addr: addr}
		for _, s := range offroute.SortedPrefix(slots, len(slots), new(offroute.SortScratch)) {
			leaf.keys = append(leaf.keys, s.Key)
		}
		chain = append(chain, leaf)
		addr = im.meta(0).sibling
		cl.ix.leaf.putImage(im)
	}
	return chain
}

// scanModel is what Scan(start, n) must return from a chain, and the
// leaves it must read to do so: every leaf from the one at index li (the
// one covering start) on that contributes an entry.
func scanModel(chain []chainLeaf, li int, start uint64, n int) (keys []uint64, leaves int) {
	for ; li < len(chain) && len(keys) < n; li++ {
		took := false
		for _, k := range chain[li].keys {
			if k >= start && len(keys) < n {
				keys, took = append(keys, k), true
			}
		}
		if took {
			leaves++
		}
	}
	return keys, leaves
}

// scanCost runs one scan and returns its result keys and the traffic it
// cost the client.
func scanCost(t *testing.T, cl *Client, start uint64, n int) ([]uint64, dmsim.ClientStats) {
	t.Helper()
	cl.DM().ResetStats()
	kvs, err := cl.Scan(start, n)
	if err != nil {
		t.Fatalf("Scan(%d, %d): %v", start, n, err)
	}
	keys := make([]uint64, len(kvs))
	for i, kv := range kvs {
		keys[i] = kv.Key
	}
	return keys, cl.DM().Stats()
}

// TestScanTripCount pins Table 1's scan row to the leaf: with the descent
// cached, Scan(start, n) posts exactly as many whole-leaf reads as it
// returns entries from, never one more — whether it starts on a leaf's
// first key, its last or in between, stops exactly at a leaf's end or one
// entry into the next, or runs off the chain — and nothing else. Up to
// one span of entries the reads are one at a time; past it the scan is
// certain to need a second leaf and has it in flight with the first.
func TestScanTripCount(t *testing.T) {
	cl := buildAllocTree(t, 1500)
	if cl.rootLevel != 1 {
		t.Fatalf("tree has %d internal levels, the counts assume 1 (every leaf named by one cached parent)", cl.rootLevel)
	}
	chain := walkChain(t, cl)
	span := cl.ix.leaf.span
	leafBytes := int64(cl.ix.leaf.size - lineSize)
	check := func(li int, start uint64, n int) {
		t.Helper()
		want, leaves := scanModel(chain, li, start, n)
		got, st := scanCost(t, cl, start, n)
		if !slices.Equal(got, want) {
			t.Fatalf("Scan(%d, %d) from leaf %d returned %d keys %v, want %d keys %v", start, n, li, len(got), got, len(want), want)
		}
		if st.Reads != int64(leaves) || st.Trips != st.Reads || st.BytesRead != st.Reads*leafBytes {
			t.Errorf("Scan(%d, %d) from leaf %d: %d reads, %d trips, %d bytes; it returns entries from %d leaves of %d bytes",
				start, n, li, st.Reads, st.Trips, st.BytesRead, leaves, leafBytes)
		}
		switch {
		case n <= span && st.MaxInflight != 1:
			t.Errorf("Scan(%d, %d): %d reads in flight at once, want 1 up to one span", start, n, st.MaxInflight)
		case n > span && leaves > 1 && st.MaxInflight < 2:
			t.Errorf("Scan(%d, %d): leaf reads never overlapped (max in flight %d) on a scan certain to need two", start, n, st.MaxInflight)
		}
	}
	for _, li := range []int{0, 7, len(chain) / 2} {
		keys := chain[li].keys
		for _, at := range []int{0, len(keys) / 2, len(keys) - 1} {
			start, k := keys[at], len(keys)-at
			for _, n := range []int{1, k, k + 1, span, span + 1, 2*span + 1} {
				check(li, start, n)
			}
		}
	}
	// Off the end of the chain: the last two leaves and no read after.
	li := len(chain) - 2
	check(li, chain[li].keys[0], 10*span)
	check(len(chain)-1, chain[len(chain)-1].keys[0], 10*span)
}

// TestScanWindowStaleParent: a second compute node splits a leaf the
// scanning client's cached parent still lists whole — the first leaf of
// the scan, one it read ahead, the last one it read ahead. The result is
// the chain's either way. What staleness costs is the reads posted past
// the split leaf, visible in the client's verb and byte counts and
// nowhere else (no restart, no sibling chase, no torn read); the parent
// leaves the cache; and the next scan, which refetches it, reads exactly
// the leaves it returns from again.
func TestScanWindowStaleParent(t *testing.T) {
	for _, tc := range []struct {
		name  string
		split int // which leaf of the scan splits, 0 = the one covering start
	}{
		{"first", 0},
		{"middle", 1},
		{"last_read_ahead", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.SpanSize, opts.Neighborhood = 16, 4
			h := newSyncHarness(t, tc.name, opts, 64<<20, 0)
			cl, span := h.cl, opts.SpanSize
			for i := uint64(1); i <= 100; i++ {
				if err := cl.Insert(i*16, val8(i)); err != nil {
					t.Fatal(err)
				}
			}
			if cl.rootLevel != 1 {
				t.Fatalf("tree has %d internal levels, the counts assume 1", cl.rootLevel)
			}
			before := walkChain(t, cl)
			li := len(before) / 2
			start, n := before[li].keys[0], 2*span+1
			// n entries past one span twice over: leaves li, li+1 and li+2
			// are posted before the first arrives.
			if _, st := scanCost(t, cl, start, n); st.MaxInflight != 3 {
				t.Fatalf("warm scan had %d reads in flight, the scenario assumes 3", st.MaxInflight)
			}

			// The writer, on its own compute node, fills the gaps of one
			// leaf's key range until the chain grows by a leaf.
			writer := cl.ix.NewComputeNode(64<<20, 0).NewClient()
			victim := before[li+tc.split]
			for j := uint64(1); len(walkChain(t, writer)) == len(before); j++ {
				if j > 15 {
					t.Fatal("victim leaf never split")
				}
				for _, k := range victim.keys {
					if err := writer.Insert(k+j, val8(k)); err != nil {
						t.Fatal(err)
					}
				}
			}
			after := walkChain(t, writer)
			if after[li+tc.split].addr != victim.addr || after[li+tc.split+1].addr == before[li+tc.split+1].addr {
				t.Fatalf("leaf %d did not split in place", li+tc.split)
			}

			// Reads in flight when the split leaf arrives: leaves posted
			// up front and not yet arrived, plus leaf li+3 if the first two
			// left the scan more than a span short.
			var dropped int64
			switch tc.split {
			case 0:
				dropped = 2
			case 1:
				dropped = 1
			case 2:
				if n-len(after[li].keys)-len(after[li+1].keys) > span {
					dropped = 1
				}
			}
			leafBytes := int64(cl.ix.leaf.size - lineSize)
			counters := func() [3]int64 {
				reg := h.sink.Registry()
				return [3]int64{reg.Counter(obs.NameRetry).Load(), reg.Counter(obs.NameSiblingChase).Load(), reg.Counter(obs.NameTornRead).Load()}
			}
			c0, inv0 := counters(), h.cn.CacheStats().Invalidations

			want, leaves := scanModel(after, li, start, n)
			got, st := scanCost(t, cl, start, n)
			if !slices.Equal(got, want) {
				t.Fatalf("scan through the stale parent returned %v, want %v", got, want)
			}
			if st.Reads != int64(leaves)+dropped || st.Trips != st.Reads || st.BytesRead != st.Reads*leafBytes {
				t.Errorf("stale scan: %d reads, %d trips, %d bytes; want %d leaves returned from + %d dropped, %d bytes each",
					st.Reads, st.Trips, st.BytesRead, leaves, dropped, leafBytes)
			}
			if c := counters(); c != c0 {
				t.Errorf("stale scan moved retries/sibling chases/torn reads %v -> %v", c0, c)
			}
			if inv := h.cn.CacheStats().Invalidations; inv != inv0+1 {
				t.Errorf("cache invalidations %d -> %d, want the stale parent dropped once", inv0, inv)
			}

			// The next scan fetches the parent afresh and wastes nothing.
			got, st = scanCost(t, cl, start, n)
			if !slices.Equal(got, want) {
				t.Fatalf("scan after the invalidation returned %v, want %v", got, want)
			}
			if wantBytes := int64(leaves)*leafBytes + int64(cl.ix.inner.size); st.Reads != int64(leaves)+1 || st.BytesRead != wantBytes {
				t.Errorf("scan after the invalidation: %d reads, %d bytes; want the parent + %d leaves = %d bytes", st.Reads, st.BytesRead, leaves, wantBytes)
			}
			if _, st = scanCost(t, cl, start, n); st.Reads != int64(leaves) {
				t.Errorf("third scan: %d reads for %d leaves returned from", st.Reads, leaves)
			}
		})
	}
}
