package smartidx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"chime/internal/dmsim"
	"chime/internal/ycsb"
)

func newTest(t *testing.T) (*Index, *ComputeNode, *Client) {
	t.Helper()
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	ix, err := Bootstrap(dmsim.MustNewFabric(cfg), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cn := ix.NewComputeNode(256 << 20)
	return ix, cn, cn.NewClient()
}

func val8(x uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, x)
	return b
}

func TestChildPacking(t *testing.T) {
	prop := func(mn uint8, offRaw uint64, leaf bool, kindRaw uint8) bool {
		a := dmsim.GAddr{MN: mn, Off: offRaw % (1 << 50)}
		kind := int(kindRaw % 4)
		addr, gotLeaf, gotKind := unpackChild(packChild(a, leaf, kind))
		if leaf {
			return addr == a && gotLeaf
		}
		return addr == a && !gotLeaf && gotKind == kind
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNodeGeometry(t *testing.T) {
	for kind := kindN4; kind <= kindN256; kind++ {
		if slotOff(kind, 0)%slotSize != 0 {
			t.Errorf("kind %d: slots not %d-aligned (off %d)", kind, slotSize, slotOff(kind, 0))
		}
		// A 16B-aligned slot never crosses a 64B line.
		off := slotOff(kind, 3)
		if off/64 != (off+slotSize-1)/64 {
			t.Errorf("kind %d: slot crosses a cache line", kind)
		}
	}
	if nodeSize(kindN4) >= nodeSize(kindN16) || nodeSize(kindN48) >= nodeSize(kindN256) {
		t.Error("node sizes must grow with kind")
	}
}

func TestNodeCodecRoundTrip(t *testing.T) {
	for kind := kindN4; kind <= kindN256; kind++ {
		hdr := header{kind: kind, depth: 2, prefixLen: 3, valid: true}
		copy(hdr.prefix[:], []byte{9, 8, 7})
		want := map[byte]uint64{}
		var slots []slot
		for i := 0; i < kindSlots[kind] && i < 40; i++ {
			// Descending key bytes: the layout must not depend on the order
			// the children were handed over in.
			kb := byte(200 - i*5)
			want[kb] = packChild(dmsim.GAddr{Off: uint64(64 + i*64)}, i%2 == 0, kindN16)
			slots = append(slots, slot{child: want[kb], keyByte: kb})
		}
		got := &node{img: make([]byte, nodeSize(kind))}
		encodeNode(got.img, hdr, nil, slots...)
		got.arrived(dmsim.GAddr{Off: 1})
		if got.hdr != hdr {
			t.Fatalf("kind %d: header %+v", kind, got.hdr)
		}
		if got.count() != len(want) {
			t.Fatalf("kind %d: %d children, want %d", kind, got.count(), len(want))
		}
		for kb, ch := range want {
			if w, _ := got.childAt(kb); w != ch {
				t.Fatalf("kind %d: child %d mismatch", kind, kb)
			}
		}
		// Re-encoding a node from itself, into another kind too, keeps its
		// children and lays them out in ascending key-byte order.
		for to := kind; to <= kindN256; to++ {
			hdr.kind = to
			again := &node{img: make([]byte, nodeSize(to))}
			encodeNode(again.img, hdr, got)
			again.arrived(dmsim.GAddr{Off: 2})
			ref := refDecodeNode(again.addr, again.img)
			if !sameChildren(again, ref) || len(ref.children) != len(want) {
				t.Fatalf("kind %d -> %d: children changed", kind, to)
			}
			for kb, ch := range want {
				if ref.children[kb] != ch {
					t.Fatalf("kind %d -> %d: child %d changed", kind, to, kb)
				}
			}
			last := -1
			for i := 0; to < kindN256 && i < again.count(); i++ {
				s := decodeSlot(again.img, to, i)
				if s.child == 0 || int(s.keyByte) <= last {
					t.Fatalf("kind %d -> %d: slot %d holds key byte %d after %d", kind, to, i, s.keyByte, last)
				}
				last = int(s.keyByte)
			}
		}
	}
}

func TestInsertSearch(t *testing.T) {
	_, _, cl := newTest(t)
	const n = 3000
	for i := uint64(0); i < n; i++ {
		if err := cl.Insert(ycsb.KeyOf(i), val8(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := uint64(0); i < n; i++ {
		got, err := cl.Search(ycsb.KeyOf(i))
		if err != nil || binary.LittleEndian.Uint64(got) != i {
			t.Fatalf("search %d: %v %v", i, got, err)
		}
	}
	if _, err := cl.Search(0xDEADBEEF); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent: %v", err)
	}
}

func TestDenseSequentialKeys(t *testing.T) {
	// Sequential keys share long prefixes: exercises prefix splits and
	// node expansion chains.
	_, _, cl := newTest(t)
	for i := uint64(0); i < 2000; i++ {
		if err := cl.Insert(i, val8(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := uint64(0); i < 2000; i++ {
		got, err := cl.Search(i)
		if err != nil || binary.LittleEndian.Uint64(got) != i {
			t.Fatalf("search %d: %v %v", i, got, err)
		}
	}
}

func TestUpsertAndUpdate(t *testing.T) {
	_, _, cl := newTest(t)
	if err := cl.Insert(7, val8(1)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Insert(7, val8(2)); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Search(7)
	if err != nil || binary.LittleEndian.Uint64(got) != 2 {
		t.Fatalf("upsert: %v %v", got, err)
	}
	if err := cl.Update(7, val8(3)); err != nil {
		t.Fatal(err)
	}
	got, _ = cl.Search(7)
	if binary.LittleEndian.Uint64(got) != 3 {
		t.Fatal("update lost")
	}
	if err := cl.Update(8, val8(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update absent: %v", err)
	}
}

func TestDelete(t *testing.T) {
	_, _, cl := newTest(t)
	for i := uint64(0); i < 500; i++ {
		if err := cl.Insert(ycsb.KeyOf(i), val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 500; i += 2 {
		if err := cl.Delete(ycsb.KeyOf(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	for i := uint64(0); i < 500; i++ {
		_, err := cl.Search(ycsb.KeyOf(i))
		if i%2 == 0 && !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted %d still present: %v", i, err)
		}
		if i%2 == 1 && err != nil {
			t.Fatalf("kept %d lost: %v", i, err)
		}
	}
	if err := cl.Delete(0xF00D); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete absent: %v", err)
	}
	// Deleted slots must be reusable.
	if err := cl.Insert(ycsb.KeyOf(0), val8(99)); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Search(ycsb.KeyOf(0))
	if err != nil || binary.LittleEndian.Uint64(got) != 99 {
		t.Fatal("reinsert after delete failed")
	}
}

func TestScanOrdered(t *testing.T) {
	_, _, cl := newTest(t)
	const n = 1500
	for i := uint64(0); i < n; i++ {
		if err := cl.Insert(ycsb.KeyOf(i), val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := cl.Scan(0, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 200 {
		t.Fatalf("scan returned %d", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].Key >= out[i].Key {
			t.Fatal("scan unsorted")
		}
	}
	// Start mid-range.
	mid := out[100].Key
	out2, err := cl.Scan(mid, 50)
	if err != nil || len(out2) != 50 || out2[0].Key != mid {
		t.Fatalf("mid scan: len=%d first=%#x err=%v", len(out2), out2[0].Key, err)
	}
	all, err := cl.Scan(0, n*2)
	if err != nil || len(all) != n {
		t.Fatalf("full scan: %d of %d: %v", len(all), n, err)
	}
}

func TestReadAmplificationIsOneLeaf(t *testing.T) {
	ix, _, cl := newTest(t)
	const n = 2000
	for i := uint64(0); i < n; i++ {
		if err := cl.Insert(ycsb.KeyOf(i), val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < n; i++ { // warm the cache
		if _, err := cl.Search(ycsb.KeyOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := cl.DM().Stats()
	const reads = 300
	for i := uint64(0); i < reads; i++ {
		if _, err := cl.Search(ycsb.KeyOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	after := cl.DM().Stats()
	perOp := float64(after.BytesRead-before.BytesRead) / reads
	if perOp > float64(ix.LeafSize())*1.5 {
		t.Fatalf("per-search bytes %.0f, want ≈ one %dB leaf", perOp, ix.LeafSize())
	}
	if trips := after.Trips - before.Trips; trips != reads {
		t.Fatalf("cached search trips = %d for %d reads", trips, reads)
	}
}

func TestCacheConsumptionScalesWithKeys(t *testing.T) {
	// The KV-discrete trade-off: node bytes grow with the key count and
	// dwarf a B+-tree's internal-node footprint.
	_, cn, cl := newTest(t)
	perKey := func(n uint64) float64 {
		for i := uint64(0); i < n; i++ {
			if err := cl.Insert(ycsb.KeyOf(i), val8(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := uint64(0); i < n; i++ {
			if _, err := cl.Search(ycsb.KeyOf(i)); err != nil {
				t.Fatal(err)
			}
		}
		_, _, _, used := cn.CacheStats()
		return float64(used) / float64(n)
	}
	pk := perKey(20000)
	if pk < 8 {
		t.Fatalf("cache per key = %.1fB; SMART should pay at least a pointer per key", pk)
	}
	t.Logf("cache bytes per key: %.1f", pk)
}

func TestConcurrentInserts(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	ix, err := Bootstrap(dmsim.MustNewFabric(cfg), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cn := ix.NewComputeNode(256 << 20)
	const clients, per = 6, 300
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := cn.NewClient()
			for i := 0; i < per; i++ {
				id := uint64(c*per + i)
				if err := cl.Insert(ycsb.KeyOf(id), val8(id)); err != nil {
					errs <- fmt.Errorf("client %d insert %d: %w", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	cl := cn.NewClient()
	for id := uint64(0); id < clients*per; id++ {
		got, err := cl.Search(ycsb.KeyOf(id))
		if err != nil || binary.LittleEndian.Uint64(got) != id {
			t.Fatalf("lost insert %d: %v %v", id, got, err)
		}
	}
}

func TestConcurrentMixed(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	ix, err := Bootstrap(dmsim.MustNewFabric(cfg), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cn := ix.NewComputeNode(256 << 20)
	loader := cn.NewClient()
	for i := uint64(0); i < 1000; i++ {
		if err := loader.Insert(ycsb.KeyOf(i), val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	const clients = 5
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := cn.NewClient()
			r := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < 300; i++ {
				k := ycsb.KeyOf(uint64(r.Intn(1000)))
				switch r.Intn(4) {
				case 0:
					if _, err := cl.Search(k); err != nil && !errors.Is(err, ErrNotFound) {
						errs <- err
						return
					}
				case 1:
					if err := cl.Update(k, val8(uint64(i))); err != nil && !errors.Is(err, ErrNotFound) {
						errs <- err
						return
					}
				case 2:
					if err := cl.Insert(ycsb.KeyOf(uint64(c)<<32|uint64(i)), val8(1)); err != nil {
						errs <- err
						return
					}
				case 3:
					if _, err := cl.Scan(k, 10); err != nil {
						errs <- err
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
