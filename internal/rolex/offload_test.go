package rolex

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"chime/internal/dmsim"
	"chime/internal/offroute"
)

func buildOffloadTest(t *testing.T, cfg dmsim.Config, opts Options, n int) (*Index, *Client) {
	t.Helper()
	ix, err := Build(dmsim.MustNewFabric(cfg), opts, sortedKeys(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	return ix, ix.NewComputeNode().NewClient()
}

// ModeAlways: every supported op goes through the MN program; results
// must match what the one-sided paths produce, and the MN CPU must have
// been charged.
func TestOffloadSearchUpdateScan(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	opts := DefaultOptions()
	opts.Offload = offroute.ModeAlways
	ix, cl := buildOffloadTest(t, cfg, opts, 2000)
	keys := sortedKeys(2000)

	for _, k := range keys {
		got, err := cl.Search(k)
		if err != nil {
			t.Fatalf("Search(%#x): %v", k, err)
		}
		if len(got) != 8 {
			t.Fatalf("Search(%#x): %d bytes", k, len(got))
		}
	}
	// A key between two trained keys is absent.
	absent := keys[10] + 1
	if absent == keys[11] {
		absent = keys[20] + 1
	}
	if _, err := cl.Search(absent); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent key: %v, want ErrNotFound", err)
	}

	for i, k := range keys {
		if i%3 != 0 {
			continue
		}
		if err := cl.Update(k, val8(k+5)); err != nil {
			t.Fatalf("Update(%#x): %v", k, err)
		}
	}
	if err := cl.Update(absent, val8(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update absent key: %v, want ErrNotFound", err)
	}
	for i, k := range keys {
		got, err := cl.Search(k)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 && binary.LittleEndian.Uint64(got) != k+5 {
			t.Fatalf("after update, Search(%#x) = %d, want %d", k, binary.LittleEndian.Uint64(got), k+5)
		}
	}

	out, err := cl.Scan(keys[100], 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 50 {
		t.Fatalf("scan returned %d items, want 50", len(out))
	}
	for j, kv := range out {
		if kv.Key != keys[100+j] {
			t.Fatalf("scan[%d].Key = %#x, want %#x", j, kv.Key, keys[100+j])
		}
	}

	if off := cl.DM().Stats().Offloads; off == 0 {
		t.Error("ModeAlways client posted no offload verbs")
	}
	if st := ix.fabric.MNCPUStatsFor(ix.offMN); st.Ops == 0 || st.BusyNs == 0 {
		t.Errorf("MN CPU unused under ModeAlways: %+v", st)
	}
	if offOps, oneOps := cl.OffloadStats(); offOps == 0 || oneOps != 0 {
		t.Errorf("router stats = %d offloaded, %d one-sided; want all offloaded", offOps, oneOps)
	}
}

// Hopscotch-leaf mode ("CHIME-Learned"): the MN program reads whole
// leaves instead of neighborhoods but must return identical results,
// and upserts must preserve home-slot bitmaps.
func TestOffloadHopscotchLeaves(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	opts := DefaultOptions()
	opts.HopscotchLeaves = true
	opts.Neighborhood = 8
	opts.Offload = offroute.ModeAlways
	_, cl := buildOffloadTest(t, cfg, opts, 1000)
	keys := sortedKeys(1000)

	for _, k := range keys {
		if _, err := cl.Search(k); err != nil {
			t.Fatalf("Search(%#x): %v", k, err)
		}
	}
	for i, k := range keys {
		if i%2 == 0 {
			if err := cl.Update(k, val8(k^0xFF)); err != nil {
				t.Fatalf("Update(%#x): %v", k, err)
			}
		}
	}
	for i, k := range keys {
		got, err := cl.Search(k)
		if err != nil {
			t.Fatalf("Search(%#x) after update: %v", k, err)
		}
		if i%2 == 0 && binary.LittleEndian.Uint64(got) != k^0xFF {
			t.Fatalf("Search(%#x) = %d, want %d", k, binary.LittleEndian.Uint64(got), k^0xFF)
		}
	}
	if off := cl.DM().Stats().Offloads; off == 0 {
		t.Error("hopscotch mode posted no offload verbs")
	}
}

// Indirect mode: searches and scans offload (the program resolves KV
// blocks MN-side when they are local, falling back when they are not);
// updates are gated one-sided — and everything stays correct.
func TestOffloadIndirectSearch(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	opts := DefaultOptions()
	opts.Indirect = true
	opts.ValueSize = 64
	opts.Offload = offroute.ModeAlways
	_, cl := buildOffloadTest(t, cfg, opts, 500)
	keys := sortedKeys(500)

	if cl.port.UpdateOK {
		t.Fatal("indirect updates must not be offloadable")
	}
	for _, k := range keys {
		got, err := cl.Search(k)
		if err != nil {
			t.Fatalf("Search(%#x): %v", k, err)
		}
		if len(got) != 64 {
			t.Fatalf("Search(%#x): %d bytes, want 64", k, len(got))
		}
	}
	out, err := cl.Scan(keys[50], 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 || out[0].Key != keys[50] {
		t.Fatalf("indirect scan: %d items, first key %#x", len(out), out[0].Key)
	}
	if off := cl.DM().Stats().Offloads; off == 0 {
		t.Error("indirect searches posted no offload verbs")
	}
}

// Adaptive mode must stay correct and route ops to both paths.
func TestOffloadAdaptiveRoutesAndStaysCorrect(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	opts := DefaultOptions()
	opts.Offload = offroute.ModeAdaptive
	_, cl := buildOffloadTest(t, cfg, opts, 1000)
	keys := sortedKeys(1000)

	for round := 0; round < 3; round++ {
		for _, k := range keys {
			if _, err := cl.Search(k); err != nil {
				t.Fatalf("Search(%#x): %v", k, err)
			}
		}
	}
	offOps, oneOps := cl.OffloadStats()
	if offOps == 0 || oneOps == 0 {
		t.Errorf("adaptive router used only one path: %d offloaded, %d one-sided", offOps, oneOps)
	}
}

// Off means off: the zero Options value keeps the router nil and the
// client posts no offload verbs at all.
func TestOffloadOffPostsNothing(t *testing.T) {
	_, cl := buildTest(t, DefaultOptions(), 500)
	keys := sortedKeys(500)
	for _, k := range keys {
		if _, err := cl.Search(k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Scan(keys[0], 50); err != nil {
		t.Fatal(err)
	}
	if off := cl.DM().Stats().Offloads; off != 0 {
		t.Fatalf("ModeOff client posted %d offload verbs", off)
	}
	if offOps, oneOps := cl.OffloadStats(); offOps != 0 || oneOps != 0 {
		t.Fatalf("nil router counted ops: %d, %d", offOps, oneOps)
	}
}

// Lock interop: concurrent offloaded updates (MN-local lock-bit CAS)
// and one-sided inserts through the CN lock table on the same groups
// must not lose updates or corrupt entries.
func TestOffloadUpdateLockInterop(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	opts := DefaultOptions()
	opts.Offload = offroute.ModeAlways
	ix, seed := buildOffloadTest(t, cfg, opts, 256)
	keys := sortedKeys(256)

	cnOff := ix.NewComputeNode()
	cnOne := ix.NewComputeNode()

	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			cl := cnOff.NewClient() // router ModeAlways: offloaded updates
			for r := 0; r < 30; r++ {
				for i := 0; i < len(keys); i += 2 {
					if err := cl.Update(keys[i], val8(1_000_000+uint64(i))); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			cl := cnOne.NewClient()
			cl.port.Router = nil // force pure one-sided writes on the same groups
			for r := 0; r < 30; r++ {
				for i := 1; i < len(keys); i += 2 {
					if err := cl.Insert(keys[i], val8(2_000_000+uint64(i))); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	for i, k := range keys {
		got, err := seed.Search(k)
		if err != nil {
			t.Fatalf("Search(%#x) after interop: %v", k, err)
		}
		v := binary.LittleEndian.Uint64(got)
		want := uint64(1_000_000 + i)
		if i%2 == 1 {
			want = 2_000_000 + uint64(i)
		}
		if v != want {
			t.Fatalf("key %#x = %d, want %d", k, v, want)
		}
	}
}
