package sherman

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"chime/internal/dmsim"
	"chime/internal/offroute"
)

func newOffloadTree(t *testing.T, cfg dmsim.Config, opts Options) (*Index, *Client) {
	t.Helper()
	ix, err := Bootstrap(dmsim.MustNewFabric(cfg), opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix, ix.NewComputeNode(64 << 20).NewClient()
}

// ModeAlways: every supported op goes through the MN program; results
// must match what the one-sided paths produce, and the MN CPU must have
// been charged.
func TestOffloadSearchUpdateScan(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	opts := DefaultOptions()
	opts.Offload = offroute.ModeAlways
	ix, cl := newOffloadTree(t, cfg, opts)

	const n = 500 // enough keys to force splits: a real multi-level tree
	for i := uint64(1); i <= n; i++ {
		if err := cl.Insert(i*7, val8(i*100)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= n; i++ {
		got, err := cl.Search(i * 7)
		if err != nil {
			t.Fatalf("Search(%d): %v", i*7, err)
		}
		if binary.LittleEndian.Uint64(got) != i*100 {
			t.Fatalf("Search(%d) = %d, want %d", i*7, binary.LittleEndian.Uint64(got), i*100)
		}
	}
	if _, err := cl.Search(3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent key: %v, want ErrNotFound", err)
	}

	for i := uint64(1); i <= n; i += 3 {
		if err := cl.Update(i*7, val8(i*1000)); err != nil {
			t.Fatalf("Update(%d): %v", i*7, err)
		}
	}
	if err := cl.Update(3, val8(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update absent key: %v, want ErrNotFound", err)
	}
	for i := uint64(1); i <= n; i++ {
		want := i * 100
		if i%3 == 1 {
			want = i * 1000
		}
		got, err := cl.Search(i * 7)
		if err != nil {
			t.Fatal(err)
		}
		if binary.LittleEndian.Uint64(got) != want {
			t.Fatalf("after update, Search(%d) = %d, want %d", i*7, binary.LittleEndian.Uint64(got), want)
		}
	}

	out, err := cl.Scan(7*10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 20 {
		t.Fatalf("scan returned %d items, want 20", len(out))
	}
	for j, kv := range out {
		wantKey := (10 + uint64(j)) * 7
		if kv.Key != wantKey {
			t.Fatalf("scan[%d].Key = %d, want %d", j, kv.Key, wantKey)
		}
		i := 10 + uint64(j)
		want := i * 100
		if i%3 == 1 {
			want = i * 1000
		}
		if binary.LittleEndian.Uint64(kv.Value) != want {
			t.Fatalf("scan[%d].Value = %d, want %d", j, binary.LittleEndian.Uint64(kv.Value), want)
		}
	}

	if off := cl.DM().Stats().Offloads; off == 0 {
		t.Error("ModeAlways client posted no offload verbs")
	}
	if st := ix.fabric.MNCPUStatsFor(0); st.Ops == 0 || st.BusyNs == 0 {
		t.Errorf("MN CPU unused under ModeAlways: %+v", st)
	}
	if offOps, oneOps := cl.OffloadStats(); offOps == 0 || oneOps != 0 {
		t.Errorf("router stats = %d offloaded, %d one-sided; want all offloaded", offOps, oneOps)
	}
}

// Indirect mode: searches and scans offload (the program resolves KV
// blocks MN-side); updates are gated one-sided — and everything stays
// correct.
func TestOffloadIndirectSearch(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	opts := DefaultOptions()
	opts.Indirect = true
	opts.ValueSize = 64
	opts.Offload = offroute.ModeAlways
	_, cl := newOffloadTree(t, cfg, opts)

	if cl.port.UpdateOK {
		t.Fatal("indirect updates must not be offloadable")
	}
	val := make([]byte, 64)
	for i := uint64(1); i <= 200; i++ {
		binary.LittleEndian.PutUint64(val, i*11)
		if err := cl.Insert(i, val); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 200; i++ {
		got, err := cl.Search(i)
		if err != nil {
			t.Fatalf("Search(%d): %v", i, err)
		}
		if len(got) != 64 || binary.LittleEndian.Uint64(got) != i*11 {
			t.Fatalf("Search(%d) = len %d, head %d", i, len(got), binary.LittleEndian.Uint64(got))
		}
	}
	out, err := cl.Scan(50, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 || out[0].Key != 50 {
		t.Fatalf("indirect scan: %d items, first key %d", len(out), out[0].Key)
	}
	if off := cl.DM().Stats().Offloads; off == 0 {
		t.Error("indirect searches posted no offload verbs")
	}
}

// Multiple MNs: descents and indirect blocks leave the program's MN, so
// it returns CrossMN verdicts and the client transparently falls back —
// correctness is preserved and the fallbacks are counted.
func TestOffloadCrossMNFallback(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNs = 4
	cfg.MNSize = 128 << 20
	opts := DefaultOptions()
	opts.Offload = offroute.ModeAlways
	ix, cl := newOffloadTree(t, cfg, opts)

	cn2 := ix.NewComputeNode(64 << 20)
	writers := []*Client{cl, cn2.NewClient(), cn2.NewClient(), cn2.NewClient()}
	for w, cw := range writers {
		for i := uint64(0); i < 150; i++ {
			k := uint64(w)*1000 + i
			if err := cw.Insert(k, val8(k+7)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for w := range writers {
		for i := uint64(0); i < 150; i++ {
			k := uint64(w)*1000 + i
			got, err := cl.Search(k)
			if err != nil {
				t.Fatalf("Search(%d): %v", k, err)
			}
			if binary.LittleEndian.Uint64(got) != k+7 {
				t.Fatalf("Search(%d) = %d, want %d", k, binary.LittleEndian.Uint64(got), k+7)
			}
		}
	}
	total := ix.fabric.TotalMNCPUStats()
	if total.Ops == 0 {
		t.Fatal("no offloaded programs executed")
	}
	if total.Fallbacks == 0 {
		t.Error("4-MN tree produced no CrossMN fallbacks; expected split leaves off MN 0")
	}
}

// Adaptive mode under a hot workload must stay correct and route ops to
// both paths (probing keeps the disfavored path sampled).
func TestOffloadAdaptiveRoutesAndStaysCorrect(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	opts := DefaultOptions()
	opts.Offload = offroute.ModeAdaptive
	_, cl := newOffloadTree(t, cfg, opts)

	for i := uint64(1); i <= 300; i++ {
		if err := cl.Insert(i, val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 4; round++ {
		for i := uint64(1); i <= 300; i++ {
			got, err := cl.Search(i)
			if err != nil {
				t.Fatalf("Search(%d): %v", i, err)
			}
			if binary.LittleEndian.Uint64(got) != i {
				t.Fatalf("Search(%d) = %d", i, binary.LittleEndian.Uint64(got))
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
	_, cl := newTestTree(t, DefaultOptions())
	for i := uint64(1); i <= 100; i++ {
		if err := cl.Insert(i, val8(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Search(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Scan(1, 50); err != nil {
		t.Fatal(err)
	}
	if off := cl.DM().Stats().Offloads; off != 0 {
		t.Fatalf("ModeOff client posted %d offload verbs", off)
	}
	if offOps, oneOps := cl.OffloadStats(); offOps != 0 || oneOps != 0 {
		t.Fatalf("nil router counted ops: %d, %d", offOps, oneOps)
	}
}

// Lock interop: concurrent offloaded updates (MN-local lock-bit CAS) and
// one-sided inserts (client CAS acquire, write-zero release) on the same
// leaves must not lose updates or corrupt entries.
func TestOffloadUpdateLockInterop(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	opts := DefaultOptions()
	opts.Offload = offroute.ModeAlways
	ix, seed := newOffloadTree(t, cfg, opts)

	const keys = 128
	for i := uint64(0); i < keys; i++ {
		if err := seed.Insert(i, val8(i)); err != nil {
			t.Fatal(err)
		}
	}

	cnOff := ix.NewComputeNode(64 << 20)
	cnOne := ix.NewComputeNode(64 << 20)

	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			cl := cnOff.NewClient() // router ModeAlways: offloaded updates
			for r := 0; r < 30; r++ {
				for i := uint64(0); i < keys; i += 2 {
					if err := cl.Update(i, val8(1_000_000+i)); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			cl := cnOne.NewClient()
			cl.port.Router = nil // force pure one-sided writes on the same leaves
			for r := 0; r < 30; r++ {
				for i := uint64(1); i < keys; i += 2 {
					if err := cl.Insert(i, val8(2_000_000+i)); err != nil {
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

	for i := uint64(0); i < keys; i++ {
		got, err := seed.Search(i)
		if err != nil {
			t.Fatalf("Search(%d) after interop: %v", i, err)
		}
		v := binary.LittleEndian.Uint64(got)
		want := uint64(1_000_000 + i)
		if i%2 == 1 {
			want = 2_000_000 + i
		}
		if v != want {
			t.Fatalf("key %d = %d, want %d", i, v, want)
		}
	}
}
