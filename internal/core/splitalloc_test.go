package core

import (
	"runtime"
	"slices"
	"testing"

	"chime/internal/dmsim"
)

// TestLeafSplitAllocsBounded holds what one leaf split costs the host:
// the resident entries are sorted as (key, value-in-place, slot) records
// in client scratch, the right node is built in a pooled image straight
// from the values where they lie, and the moved slots are cleared by
// index — so what is left is the parent's insert (its fetched image, its
// decoded form, its re-encoded image and the cache's view of it). The
// code this replaced copied every resident value, kept a map of moved
// keys and sorted through reflection: some 80 objects more per split, in
// the measured phase of every inserting workload.
//
// Each round fills the rightmost leaf through Insert, then locks and
// fetches it whole, as a write op whose window finds no room does, and counts the objects splitLeaf
// allocates, the up-propagation included.
func TestLeafSplitAllocsBounded(t *testing.T) {
	prev := poisonRecycled
	poisonRecycled = false // the guard allocates nothing, but costs the pool its images
	defer func() { poisonRecycled = prev }()

	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 256 << 20
	ix, err := Bootstrap(dmsim.MustNewFabric(cfg), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cl := ix.NewComputeNode(64<<20, 0).NewClient()
	val := val8(1)
	next := uint64(1)
	var allocs []uint64
	var ms runtime.MemStats
	for round := 0; round < 60; round++ {
		for i := 0; i < 40; i++ {
			if err := cl.Insert(next*7, val); err != nil {
				t.Fatal(err)
			}
			next++
		}
		pending := next * 7
		ref, err := cl.descend(pending)
		if err != nil {
			t.Fatal(err)
		}
		lw, err := cl.lockLeaf(ref.addr)
		if err != nil {
			t.Fatal(err)
		}
		im, metaG, err := cl.fetchWholeLeaf(ref.addr)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		err = cl.splitLeaf(ref.addr, cl.desc.path, im, im.meta(metaG), lw, pending, true)
		runtime.ReadMemStats(&ms)
		ix.leaf.putImage(im)
		if err != nil {
			t.Fatal(err)
		}
		if round >= 10 { // the first rounds grow the client's scratch and the pools
			allocs = append(allocs, ms.Mallocs-before)
		}
	}
	for i := uint64(1); i < next; i++ {
		if _, err := cl.Search(i * 7); err != nil {
			t.Fatalf("key %d after the splits: %v", i*7, err)
		}
	}
	slices.Sort(allocs)
	maxAllocs := uint64(8) // measured 6
	if raceBuild {
		maxAllocs += 4 // the right node's image, new each time
	}
	if median := allocs[len(allocs)/2]; median > maxAllocs {
		t.Fatalf("a leaf split allocates %d objects (median of %v), want <= %d: a per-entry allocation is back", median, allocs, maxAllocs)
	}
}
