package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"chime/internal/dmsim"
	"chime/internal/ycsb"
)

// fullScanTrips counts the round trips of a complete scan — a proxy for
// the length of the leaf sibling chain.
func fullScanTrips(t *testing.T, cl *Client, expect int) int64 {
	t.Helper()
	before := cl.DM().Stats().Trips
	out, err := cl.Scan(0, expect+10)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != expect {
		t.Fatalf("scan found %d items, want %d", len(out), expect)
	}
	return cl.DM().Stats().Trips - before
}

func TestMergeShrinksLeafChain(t *testing.T) {
	_, cl := newTestTree(t, DefaultOptions())
	const n = 4000
	for i := uint64(0); i < n; i++ {
		if err := cl.Insert(ycsb.KeyOf(i), val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a contiguous key band so whole leaves empty out.
	keys := make([]uint64, 0, n)
	for i := uint64(0); i < n; i++ {
		keys = append(keys, ycsb.KeyOf(i))
	}
	sortU64(keys)
	for _, k := range keys[500:3500] {
		if err := cl.Delete(k); err != nil {
			t.Fatalf("delete %#x: %v", k, err)
		}
	}

	trips := fullScanTrips(t, cl, 1000)
	// Without merging the chain stays ~90 leaves; with merging the
	// emptied middle collapses. Expect far fewer than the original leaf
	// count worth of trips.
	if trips > 60 {
		t.Fatalf("full scan cost %d trips; merge did not shrink the chain", trips)
	}

	// Everything still present and correct.
	for i, k := range keys {
		got, err := cl.Search(k)
		if i >= 500 && i < 3500 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted key %d: %v", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("surviving key %d: %v", i, err)
		}
		_ = got
	}
}

func TestMergeThenReinsert(t *testing.T) {
	_, cl := newTestTree(t, DefaultOptions())
	const n = 2000
	for i := uint64(0); i < n; i++ {
		if err := cl.Insert(ycsb.KeyOf(i), val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < n; i++ {
		if err := cl.Delete(ycsb.KeyOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The merged tree must absorb a full reload: merged-away ranges are
	// now owned by their left neighbors.
	for i := uint64(0); i < n; i++ {
		if err := cl.Insert(ycsb.KeyOf(i), val8(i+7)); err != nil {
			t.Fatalf("reinsert %d: %v", i, err)
		}
	}
	for i := uint64(0); i < n; i++ {
		got, err := cl.Search(ycsb.KeyOf(i))
		if err != nil || binary.LittleEndian.Uint64(got) != i+7 {
			t.Fatalf("reloaded %d: %v %v", i, got, err)
		}
	}
}

func TestMergeConcurrentWithTraffic(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	ix, err := Bootstrap(dmsim.MustNewFabric(cfg), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cn := ix.NewComputeNode(64<<20, 1<<20)
	loader := cn.NewClient()
	const n = 3000
	for i := uint64(0); i < n; i++ {
		if err := loader.Insert(ycsb.KeyOf(i), val8(i)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	// Deleters empty out bands (triggering merges) while readers,
	// writers and scanners hammer the same tree.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := cn.NewClient()
			lo := uint64(w) * n / 2
			for i := lo; i < lo+n/4; i++ {
				if err := cl.Delete(ycsb.KeyOf(i)); err != nil && !errors.Is(err, ErrNotFound) {
					errs <- fmt.Errorf("deleter: %w", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cl := cn.NewClient()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < 600; i++ {
				k := ycsb.KeyOf(uint64(rng.Intn(n)))
				switch rng.Intn(3) {
				case 0:
					if _, err := cl.Search(k); err != nil && !errors.Is(err, ErrNotFound) {
						errs <- fmt.Errorf("reader: %w", err)
						return
					}
				case 1:
					if err := cl.Insert(ycsb.KeyOf(uint64(n)+uint64(r*1000+i)), val8(1)); err != nil {
						errs <- fmt.Errorf("inserter: %w", err)
						return
					}
				case 2:
					if _, err := cl.Scan(k, 15); err != nil {
						errs <- fmt.Errorf("scanner: %w", err)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Post-hoc verification: survivors intact.
	cl := cn.NewClient()
	for i := uint64(0); i < n; i++ {
		del := (i < n/4) || (i >= n/2 && i < n/2+n/4)
		got, err := cl.Search(ycsb.KeyOf(i))
		if del {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted %d resurfaced: %v", i, err)
			}
		} else if err != nil || binary.LittleEndian.Uint64(got) != i {
			t.Fatalf("survivor %d: %v %v", i, got, err)
		}
	}
}

func sortU64(a []uint64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// TestMergeWithVarKeys: DeleteKV-driven merges must keep fingerprint
// chains addressable through the restructured tree.
func TestMergeWithVarKeys(t *testing.T) {
	opts := DefaultOptions()
	opts.VarKeys = true
	_, cl := newTestTree(t, opts)
	const n = 1500
	key := func(i int) []byte { return []byte(fmt.Sprintf("doc/%06d", i)) }
	for i := 0; i < n; i++ {
		if err := cl.InsertKV(key(i), []byte{byte(i)}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	// Empty a large middle band (whole leaves merge away).
	for i := 200; i < 1200; i++ {
		if err := cl.DeleteKV(key(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		got, err := cl.SearchKV(key(i))
		if i >= 200 && i < 1200 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted %d: %v", i, err)
			}
			continue
		}
		if err != nil || got[0] != byte(i) {
			t.Fatalf("survivor %d: %v %v", i, got, err)
		}
	}
	// Reinsert into merged-away ranges.
	for i := 500; i < 700; i++ {
		if err := cl.InsertKV(key(i), []byte{0xEE}); err != nil {
			t.Fatalf("reinsert %d: %v", i, err)
		}
	}
	out, err := cl.ScanKV([]byte("doc/000500"), 200)
	if err != nil || len(out) != 200 {
		t.Fatalf("post-merge scan: %d %v", len(out), err)
	}
}

// TestMergeCheckGivesImagesBack: the merge check reads whole leaves — the
// confirmation read outside the locks, then the victim and its left
// sibling under them — and the parent; every exit gives those images
// back, so a check that finds the leaf not empty allocates nothing,
// before the locks or under them, and a delete loop that empties and
// merges leaves allocates no image per merge.
func TestMergeCheckGivesImagesBack(t *testing.T) {
	if raceBuild {
		t.Skip("sync.Pool drops what it is handed under the race detector")
	}
	defer func(p bool) { poisonRecycled = p }(poisonRecycled)
	poisonRecycled = false // poisoning allocates
	_, cl := newTestTree(t, DefaultOptions())
	const n = 4000
	keys := make([]uint64, 0, n)
	for i := uint64(0); i < n; i++ {
		keys = append(keys, ycsb.KeyOf(i))
		if err := cl.Insert(keys[i], val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	sortU64(keys)

	// A full leaf in the middle of the tree: not its parent's leftmost
	// child, so the check under the locks runs to the victim's re-read.
	key := keys[n/2]
	ref, err := cl.descend(key)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(500, func() { cl.maybeMergeLeaf(ref.addr, key) }); a != 0 {
		t.Errorf("merge check of a full leaf: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(500, func() { cl.mergeEmptyLeaf(ref.addr, key) }); a != 0 {
		t.Errorf("merge check of a full leaf under the locks: %v allocs, want 0", a)
	}

	// Empty a band of leaves: every delete that empties one merges it.
	band := keys[500:3500]
	var stats runtime.MemStats
	runtime.ReadMemStats(&stats)
	before := stats.Mallocs
	for _, k := range band {
		if err := cl.Delete(k); err != nil {
			t.Fatalf("delete %#x: %v", k, err)
		}
	}
	runtime.ReadMemStats(&stats)
	perDelete := float64(stats.Mallocs-before) / float64(len(band))
	if trips := fullScanTrips(t, cl, n-len(band)); trips > 60 {
		t.Fatalf("full scan cost %d trips; the band's leaves did not merge", trips)
	}
	// About 0.1 here — the parent's rewrite, a handful of objects per
	// merge — against 0.7 while each check left its images behind.
	if perDelete > 0.2 {
		t.Errorf("emptying %d keys' leaves: %.3f allocs per delete, want ≤ 0.2", len(band), perDelete)
	}
}
