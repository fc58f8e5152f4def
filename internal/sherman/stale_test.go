package sherman

import (
	"encoding/binary"
	"testing"

	"chime/internal/dmsim"
	"chime/internal/ycsb"
)

// TestCrossCNStaleCache: CN1 warms its cache, CN2 splits nodes behind
// its back, and CN1 must detect staleness via fence checks, drop cached
// nodes and still find every key.
func TestCrossCNStaleCache(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	ix, err := Bootstrap(dmsim.MustNewFabric(cfg), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cn1 := ix.NewComputeNode(64 << 20)
	cn2 := ix.NewComputeNode(64 << 20)
	cl1, cl2 := cn1.NewClient(), cn2.NewClient()

	const phase1 = 800
	for i := uint64(0); i < phase1; i++ {
		if err := cl1.Insert(ycsb.KeyOf(i), val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Warm CN1's cache.
	for i := uint64(0); i < phase1; i++ {
		if _, err := cl1.Search(ycsb.KeyOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	// CN2 grows the tree far past CN1's cached view.
	const phase2 = 4000
	for i := uint64(phase1); i < phase2; i++ {
		if err := cl2.Insert(ycsb.KeyOf(i), val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	// CN1 must find both old and new keys through its stale cache.
	for i := uint64(0); i < phase2; i += 7 {
		got, err := cl1.Search(ycsb.KeyOf(i))
		if err != nil || binary.LittleEndian.Uint64(got) != i {
			t.Fatalf("stale-cache search %d: %v %v", i, got, err)
		}
	}
	// And update through it.
	for i := uint64(0); i < phase2; i += 101 {
		if err := cl1.Update(ycsb.KeyOf(i), val8(i+1)); err != nil {
			t.Fatalf("stale-cache update %d: %v", i, err)
		}
	}
}

func TestTinyCacheEviction(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	ix, err := Bootstrap(dmsim.MustNewFabric(cfg), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// A cache that holds roughly two internal nodes forces constant
	// eviction.
	cn := ix.NewComputeNode(int64(2 * ix.InternalNodeSize()))
	cl := cn.NewClient()
	for i := uint64(0); i < 3000; i++ {
		if err := cl.Insert(ycsb.KeyOf(i), val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 3000; i++ {
		if _, err := cl.Search(ycsb.KeyOf(i)); err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
	}
	hits, misses, nodes, used := cn.CacheStats()
	if used > int64(2*ix.InternalNodeSize()) {
		t.Fatalf("cache exceeded budget: %d bytes", used)
	}
	if misses == 0 || nodes > 2 {
		t.Fatalf("eviction never happened: hits=%d misses=%d nodes=%d", hits, misses, nodes)
	}
}

func TestAccessors(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 64 << 20
	ix, err := Bootstrap(dmsim.MustNewFabric(cfg), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ix.Options().SpanSize != 64 {
		t.Fatal("Options accessor")
	}
	if ix.LeafNodeSize() <= 0 || ix.InternalNodeSize() <= 0 {
		t.Fatal("node size accessors")
	}
	if ix.LeafNodeSize() < 64*17 {
		t.Fatalf("leaf %dB implausibly small", ix.LeafNodeSize())
	}
}

// TestStaleParentHeals: a compute node whose cached parents went stale
// under another node's splits pays for each stale parent once. CN 1
// loads 10 000 keys, CN 2 inserts 10 000 more (splitting leaves and
// level-1 nodes under CN 1's cache), then CN 1 searches all 20 000 keys
// twice. A chase across a split drops the parent that routed it there,
// so the second pass costs what a freshly warmed node pays — one trip per
// search. A parent kept cached sent every later search of its range on
// the same chase: 1.534 trips per search, pass after pass.
func TestStaleParentHeals(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	ix, err := Bootstrap(dmsim.MustNewFabric(cfg), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cl1 := ix.NewComputeNode(64 << 20).NewClient()
	cl2 := ix.NewComputeNode(64 << 20).NewClient()
	const n = 10000
	for i := uint64(0); i < 2*n; i++ {
		cl := cl1
		if i >= n {
			cl = cl2
		}
		if err := cl.Insert(ycsb.KeyOf(i), val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	var trips [2]float64
	for pass := range trips {
		cl1.DM().ResetStats()
		for i := uint64(0); i < 2*n; i++ {
			if _, err := cl1.Search(ycsb.KeyOf(i)); err != nil {
				t.Fatalf("pass %d, key %d: %v", pass, i, err)
			}
		}
		trips[pass] = float64(cl1.DM().Stats().Trips) / (2 * n)
	}
	t.Logf("trips per search: %.3f, then %.3f", trips[0], trips[1])
	if trips[1] > 1.01 {
		t.Fatalf("second pass costs %.3f trips per search, want <= 1.01: a stale cached parent was kept", trips[1])
	}
}
