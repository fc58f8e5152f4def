package core

import (
	"testing"

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
		im, _, err := cl.fetchLeafWindow(ref.addr, home, lay.h)
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
