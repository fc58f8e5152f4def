package core

import (
	"encoding/binary"
	"errors"
	"testing"

	"chime/internal/dmsim"
	"chime/internal/ycsb"
)

// TestCrossCNStaleCache exercises the sibling-based cache validation
// (§4.2.3 rule 1) across compute nodes: CN2 splits leaves behind CN1's
// cached parents; CN1's reads must detect the mismatch between the
// leaf's sibling pointer and the cached parent's next-child pointer,
// invalidate, and retry successfully.
func TestCrossCNStaleCache(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	ix, err := Bootstrap(dmsim.MustNewFabric(cfg), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cn1 := ix.NewComputeNode(64<<20, 1<<20)
	cn2 := ix.NewComputeNode(64<<20, 0)
	cl1, cl2 := cn1.NewClient(), cn2.NewClient()

	const phase1 = 800
	for i := uint64(0); i < phase1; i++ {
		if err := cl1.Insert(ycsb.KeyOf(i), val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < phase1; i++ { // warm CN1
		if _, err := cl1.Search(ycsb.KeyOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := cn1.CacheStats()

	const phase2 = 5000
	for i := uint64(phase1); i < phase2; i++ {
		if err := cl2.Insert(ycsb.KeyOf(i), val8(i)); err != nil {
			t.Fatal(err)
		}
	}

	for i := uint64(0); i < phase2; i += 7 {
		got, err := cl1.Search(ycsb.KeyOf(i))
		if err != nil || binary.LittleEndian.Uint64(got) != i {
			t.Fatalf("stale-cache search %d: %v %v", i, got, err)
		}
	}
	after := cn1.CacheStats()
	if after.Invalidations == before.Invalidations {
		t.Fatal("expected cache invalidations from sibling-based validation")
	}

	// Writes through the stale cache must land too.
	for i := uint64(0); i < phase2; i += 113 {
		if err := cl1.Update(ycsb.KeyOf(i), val8(i^0xF)); err != nil {
			t.Fatalf("stale update %d: %v", i, err)
		}
		if err := cl1.Insert(ycsb.KeyOf(uint64(phase2)+i), val8(i)); err != nil {
			t.Fatalf("stale insert %d: %v", i, err)
		}
	}
	// Scans via the stale CN.
	out, err := cl1.Scan(0, 200)
	if err != nil || len(out) != 200 {
		t.Fatalf("stale scan: %d %v", len(out), err)
	}
}

// TestHotspotStaleAfterCrossCNUpdate: CN1's hotspot buffer records an
// entry location; CN2 moves the key (delete + reinsert elsewhere) and
// the speculative read must miss cleanly, fall back, and repair.
func TestHotspotStaleAfterCrossCNUpdate(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 256 << 20
	ix, err := Bootstrap(dmsim.MustNewFabric(cfg), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cn1 := ix.NewComputeNode(32<<20, 1<<20)
	cn2 := ix.NewComputeNode(32<<20, 0)
	cl1, cl2 := cn1.NewClient(), cn2.NewClient()

	for i := uint64(0); i < 300; i++ {
		if err := cl1.Insert(ycsb.KeyOf(i), val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	hot := ycsb.KeyOf(42)
	for i := 0; i < 30; i++ { // make it a hotspot on CN1
		if _, err := cl1.Search(hot); err != nil {
			t.Fatal(err)
		}
	}
	// CN2 rewrites the key's value out from under CN1's buffer.
	if err := cl2.Update(hot, val8(999)); err != nil {
		t.Fatal(err)
	}
	got, err := cl1.Search(hot)
	if err != nil || binary.LittleEndian.Uint64(got) != 999 {
		t.Fatalf("speculative read returned stale cross-CN value: %v %v", got, err)
	}
	// CN2 deletes it; CN1 must see the absence despite its hotspot.
	if err := cl2.Delete(hot); err != nil {
		t.Fatal(err)
	}
	if _, err := cl1.Search(hot); err == nil {
		t.Fatal("deleted key still visible through hotspot buffer")
	}
}

// TestStaleParentRoutesToMergedLeaf: CN2 empties a leaf until it is
// merged away; CN1's cached parent still routes that leaf's key range to
// the deleted node. Every op of CN1 that lands there must drop the stale
// parent before it retries — a retry through the same cached parent meets
// the same deleted leaf until the retries run out.
func TestStaleParentRoutesToMergedLeaf(t *testing.T) {
	opts := DefaultOptions()
	opts.SpanSize, opts.Neighborhood = 16, 4
	ix, err := Bootstrap(testFabric(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	cl2 := ix.NewComputeNode(64<<20, 0).NewClient()
	for i := uint64(1); i <= 100; i++ {
		if err := cl2.Insert(i*16, val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	chain := walkChain(t, cl2)
	for _, tc := range []struct {
		op string
		do func(cl *Client, key uint64) error
	}{
		{"Search", func(cl *Client, key uint64) error { _, err := cl.Search(key); return err }},
		{"Update", func(cl *Client, key uint64) error { return cl.Update(key, val8(1)) }},
		{"Delete", func(cl *Client, key uint64) error { return cl.Delete(key) }},
		{"Scan", func(cl *Client, key uint64) error {
			kvs, err := cl.Scan(key, 5)
			if err != nil {
				return err
			}
			if len(kvs) != 5 || kvs[0].Key <= key {
				t.Errorf("Scan(%d, 5) returned %d entries from key %d", key, len(kvs), kvs[0].Key)
			}
			return ErrNotFound // the key itself is gone
		}},
	} {
		op, do := tc.op, tc.do
		t.Run(op, func(t *testing.T) {
			cl1 := ix.NewComputeNode(64<<20, 0).NewClient()
			victim := chain[len(chain)/2] // not its parent's leftmost child: mergeable
			chain = append(chain[:len(chain)/2], chain[len(chain)/2+1:]...)
			if _, err := cl1.Search(victim.keys[0]); err != nil { // CN1 caches the parent
				t.Fatal(err)
			}
			for _, k := range victim.keys {
				if err := cl2.Delete(k); err != nil {
					t.Fatal(err)
				}
			}
			if after := walkChain(t, cl2); len(after) != len(chain) {
				t.Fatalf("chain has %d leaves after the deletes, want %d: the victim was not merged away", len(after), len(chain))
			}
			inv0 := cl1.cn.CacheStats().Invalidations
			if err := do(cl1, victim.keys[0]); !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s of a key whose leaf was merged away: %v, want ErrNotFound", op, err)
			}
			if inv := cl1.cn.CacheStats().Invalidations; inv != inv0+1 {
				t.Errorf("cache invalidations %d -> %d, want the stale parent dropped once", inv0, inv)
			}
		})
	}
}

// TestStaleParentHeals: a compute node whose cached parents went stale
// under another node's splits pays for each stale parent once. CN 1
// loads 10 000 keys, CN 2 inserts 10 000 more (splitting leaves and
// level-1 nodes under CN 1's cache), then CN 1 searches all 20 000 keys
// twice. A chase across a split drops the parent that routed it there,
// so the second pass costs what a freshly warmed node pays — one trip per
// search. A parent kept cached sent every later search of its range on
// the same chase: 1.650 trips per search, pass after pass.
func TestStaleParentHeals(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	ix, err := Bootstrap(dmsim.MustNewFabric(cfg), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cl1 := ix.NewComputeNode(64<<20, 0).NewClient()
	cl2 := ix.NewComputeNode(64<<20, 0).NewClient()
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
