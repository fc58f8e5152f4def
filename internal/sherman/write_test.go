package sherman

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"chime/internal/dmsim"
	"chime/internal/lease"
	"chime/internal/obs"
	"chime/internal/ycsb"
)

func checkAllW(t *testing.T, cl *Client, want map[uint64]uint64) {
	t.Helper()
	for k, v := range want {
		got, err := cl.Search(k)
		if err != nil {
			t.Fatalf("key %#x lost: %v", k, err)
		}
		if binary.LittleEndian.Uint64(got) != v {
			t.Fatalf("key %#x = %x, want %d", k, got, v)
		}
	}
}

func TestShermanInsertBatchBasic(t *testing.T) {
	for _, depth := range []int{1, 8} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			_, cl := newTestTree(t, DefaultOptions())
			const n = 500
			keys := make([]uint64, n)
			vals := make([][]byte, n)
			want := map[uint64]uint64{}
			for i := range keys {
				keys[i] = ycsb.KeyOf(uint64(i))
				vals[i] = val8(uint64(i) + 1)
				want[keys[i]] = uint64(i) + 1
			}
			for i, err := range cl.InsertBatch(keys, vals, depth) {
				if err != nil {
					t.Fatalf("key %d: %v", i, err)
				}
			}
			checkAllW(t, cl, want)
		})
	}
}

func TestShermanInsertBatchUpsert(t *testing.T) {
	_, cl := newTestTree(t, DefaultOptions())
	const n = 300
	keys := make([]uint64, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = ycsb.KeyOf(uint64(i))
		vals[i] = val8(uint64(i) + 1)
		if err := cl.Insert(keys[i], val8(0xdead)); err != nil {
			t.Fatal(err)
		}
	}
	want := map[uint64]uint64{}
	for i, k := range keys {
		want[k] = uint64(i) + 1
	}
	for i, err := range cl.InsertBatch(keys, vals, 8) {
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
	}
	checkAllW(t, cl, want)
}

func TestShermanUpdateBatchMixed(t *testing.T) {
	_, cl := newTestTree(t, DefaultOptions())
	const n = 200
	keys := make([]uint64, n)
	vals := make([][]byte, n)
	want := map[uint64]uint64{}
	for i := range keys {
		keys[i] = ycsb.KeyOf(uint64(i))
		vals[i] = val8(uint64(i) + 1)
		if i%3 != 0 {
			continue // every third key is never inserted
		}
		if err := cl.Insert(keys[i], val8(7)); err != nil {
			t.Fatal(err)
		}
	}
	errs := cl.UpdateBatch(keys, vals, 8)
	for i, err := range errs {
		if i%3 == 0 {
			if err != nil {
				t.Fatalf("present key %d: %v", i, err)
			}
			want[keys[i]] = uint64(i) + 1
		} else if !errors.Is(err, ErrNotFound) {
			t.Fatalf("absent key %d: err = %v, want ErrNotFound", i, err)
		}
	}
	checkAllW(t, cl, want)
	for i := range keys {
		if i%3 != 0 {
			if _, err := cl.Search(keys[i]); !errors.Is(err, ErrNotFound) {
				t.Fatalf("absent key %d materialized: %v", i, err)
			}
		}
	}
}

func TestShermanInsertBatchSplits(t *testing.T) {
	_, cl := newTestTree(t, DefaultOptions())
	const n = 2500
	keys := make([]uint64, n)
	vals := make([][]byte, n)
	want := map[uint64]uint64{}
	for i := range keys {
		keys[i] = ycsb.KeyOf(uint64(i))
		vals[i] = val8(uint64(i) + 1)
		want[keys[i]] = uint64(i) + 1
	}
	for i, err := range cl.InsertBatch(keys, vals, 16) {
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
	}
	checkAllW(t, cl, want)
}

func TestShermanWriteBatchCombining(t *testing.T) {
	_, cl := newTestTree(t, DefaultOptions())
	const n = 8
	keys := make([]uint64, n)
	vals := make([][]byte, n)
	want := map[uint64]uint64{}
	for i := range keys {
		keys[i] = ycsb.KeyOf(uint64(i))
		vals[i] = val8(uint64(i) + 1)
		want[keys[i]] = uint64(i) + 1
	}
	for i, err := range cl.InsertBatch(keys, vals, n) {
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
	}
	cycles, combined := cl.WriteCombineStats()
	if cycles == 0 {
		t.Fatal("no write cycles recorded")
	}
	if combined == 0 {
		t.Fatalf("no combining on a single-leaf batch (cycles=%d)", cycles)
	}
	checkAllW(t, cl, want)
}

func TestShermanWriteBatchRestartIsolation(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	ix, err := Bootstrap(dmsim.MustNewFabric(cfg), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cn := ix.NewComputeNode(64 << 20)
	const writers, perWriter = 4, 600
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := cn.NewClient()
			keys := make([]uint64, perWriter)
			vals := make([][]byte, perWriter)
			for i := range keys {
				id := uint64(i*writers + w) // interleaved ownership
				keys[i] = ycsb.KeyOf(id)
				vals[i] = val8(id + 1)
			}
			for i, err := range cl.InsertBatch(keys, vals, 8) {
				if err != nil {
					errCh <- fmt.Errorf("writer %d key %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	cl := cn.NewClient()
	for id := uint64(0); id < writers*perWriter; id++ {
		got, err := cl.Search(ycsb.KeyOf(id))
		if err != nil {
			t.Fatalf("lost batched insert %d: %v", id, err)
		}
		if binary.LittleEndian.Uint64(got) != id+1 {
			t.Fatalf("batched insert %d corrupted: %x", id, got)
		}
	}
}

// TestShermanWriteBatchVsSyncWriters races the lock-table-bypassing
// batch path against synchronous clients that do use the local lock
// table, on overlapping leaves with disjoint keys.
func TestShermanWriteBatchVsSyncWriters(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	ix, err := Bootstrap(dmsim.MustNewFabric(cfg), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cn := ix.NewComputeNode(64 << 20)
	const n = 800
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	wg.Add(2)
	go func() {
		defer wg.Done()
		cl := cn.NewClient()
		keys := make([]uint64, n)
		vals := make([][]byte, n)
		for i := range keys {
			keys[i] = ycsb.KeyOf(uint64(2 * i)) // even ids
			vals[i] = val8(uint64(2*i) + 1)
		}
		for i, err := range cl.InsertBatch(keys, vals, 8) {
			if err != nil {
				errCh <- fmt.Errorf("batch key %d: %w", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		cl := cn.NewClient()
		for i := 0; i < n; i++ {
			id := uint64(2*i + 1) // odd ids
			if err := cl.Insert(ycsb.KeyOf(id), val8(id+1)); err != nil {
				errCh <- fmt.Errorf("sync insert %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	cl := cn.NewClient()
	for id := uint64(0); id < 2*n; id++ {
		got, err := cl.Search(ycsb.KeyOf(id))
		if err != nil {
			t.Fatalf("lost id %d: %v", id, err)
		}
		if binary.LittleEndian.Uint64(got) != id+1 {
			t.Fatalf("id %d corrupted: %x", id, got)
		}
	}
}

func TestShermanInsertBatchIndirect(t *testing.T) {
	opts := DefaultOptions()
	opts.Indirect = true
	opts.ValueSize = 24
	_, cl := newTestTree(t, opts)
	const n = 400
	keys := make([]uint64, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = ycsb.KeyOf(uint64(i))
		v := make([]byte, 24)
		binary.LittleEndian.PutUint64(v, uint64(i)+1)
		vals[i] = v
	}
	for i, err := range cl.InsertBatch(keys, vals, 8) {
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
	}
	for i, k := range keys {
		got, err := cl.Search(k)
		if err != nil {
			t.Fatalf("key %d lost: %v", i, err)
		}
		if binary.LittleEndian.Uint64(got[:8]) != uint64(i)+1 {
			t.Fatalf("key %d = %x", i, got)
		}
	}
}

// leasePeek is a fault injector that reads, out of band, the lock word
// of one leaf just before each READ a writer issues: the whole-leaf fetch
// of a write runs under the lock, so the word it sees is what the
// writer's lock CAS installed.
type leasePeek struct {
	f      *dmsim.Fabric
	writer int64
	leaf   dmsim.GAddr
	held   []uint64 // the non-zero words seen
}

func (p *leasePeek) Decide(v dmsim.VerbInfo) dmsim.FaultDecision {
	if v.Client == p.writer && v.Class == dmsim.VerbRead {
		var b [8]byte
		if err := p.f.Peek(p.leaf, b[:]); err != nil {
			panic(err)
		}
		if w := binary.LittleEndian.Uint64(b[:]); w != 0 {
			p.held = append(p.held, w)
		}
	}
	return dmsim.FaultDecision{}
}

func (*leasePeek) ObserveCAS(dmsim.CASInfo) {}

// TestWritesUnderLeaseLocks: under LeaseLocks every leaf write — one key
// or a batch — installs the writer's (owner, expiry) lease, and steals a
// lock left under an expired lease. The batch writer CASed a plain lock
// bit, so a crashed batch writer wedged its leaf forever, and it never
// stole: over a leaf whose word was lease.Word(99, 1) it failed with a
// starved lock after 100 000 CASes where Update succeeded.
func TestWritesUnderLeaseLocks(t *testing.T) {
	for name, write := range map[string]func(cl *Client, k uint64, v []byte) error{
		"Update": func(cl *Client, k uint64, v []byte) error { return cl.Update(k, v) },
		"UpdateBatch": func(cl *Client, k uint64, v []byte) error {
			return cl.UpdateBatch([]uint64{k}, [][]byte{v}, 1)[0]
		},
		"InsertBatch": func(cl *Client, k uint64, v []byte) error {
			return cl.InsertBatch([]uint64{k}, [][]byte{v}, 1)[0]
		},
	} {
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.LeaseLocks = true
			ix := newSyncIndex(t, opts)
			sink := obs.NewSink(false)
			cn := ix.NewComputeNode(64 << 20)
			cn.SetObserver(sink)
			cl := cn.NewClient()
			for k := uint64(1); k <= 20; k++ {
				if err := cl.Insert(k, val8(k)); err != nil {
					t.Fatal(err)
				}
			}
			const key = 7
			leaf, _, err := cl.descend(key)
			if err != nil {
				t.Fatal(err)
			}

			// The word the write holds the leaf under is its own lease.
			p := &leasePeek{f: ix.fabric, writer: cl.DM().ID(), leaf: leaf}
			ix.fabric.SetFaultInjector(p)
			err = write(cl, key, val8(100))
			ix.fabric.SetFaultInjector(nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.held) != 1 {
				t.Fatalf("saw the leaf locked at %d of the write's reads, want 1 (the fetch under the lock)", len(p.held))
			}
			owner, expiry := lease.Decode(p.held[0])
			if lease.Word(cl.DM().ID(), expiry) != p.held[0] || expiry <= 0 {
				t.Errorf("leaf held under word %#x (owner %d, expiry %d), want client %d's lease", p.held[0], owner, expiry, cl.DM().ID())
			}

			// A lock left under an expired lease is stolen.
			var stale [8]byte
			binary.LittleEndian.PutUint64(stale[:], lease.Word(99, 1))
			other := ix.NewComputeNode(64 << 20).NewClient()
			if err := other.DM().Write(leaf, stale[:]); err != nil {
				t.Fatal(err)
			}
			if err := write(cl, key, val8(200)); err != nil {
				t.Fatalf("write over an expired lease: %v", err)
			}
			if got := sink.Registry().Counter(obs.NameRecovery).Load(); got != 1 {
				t.Errorf("obs %s = %d after one steal, want 1", obs.NameRecovery, got)
			}
			if got, err := cl.Search(key); err != nil || binary.LittleEndian.Uint64(got) != 200 {
				t.Fatalf("after the steal key %d = %x, %v; want 200", key, got, err)
			}
			var word [8]byte
			if err := other.DM().Read(leaf, word[:]); err != nil || word != [8]byte{} {
				t.Fatalf("leaf lock word after the write: %x (%v), want free", word, err)
			}
		})
	}
}

// crashAtAtomic is a fault injector that crashes one client at its nth
// atomic verb from arming; every verb of the client fails after that.
type crashAtAtomic struct {
	client, n, atomics int64
}

func (f *crashAtAtomic) Decide(v dmsim.VerbInfo) dmsim.FaultDecision {
	if v.Client != f.client || v.Class != dmsim.VerbAtomic {
		return dmsim.FaultDecision{}
	}
	f.atomics++
	return dmsim.FaultDecision{Crash: f.atomics == f.n}
}

func (*crashAtAtomic) ObserveCAS(dmsim.CASInfo) {}

// TestFailedLockGivesTheSlotBack: an internal node's lock takes the
// node's slot in the CN's lock table before its CAS; when the CAS fails
// with an error — the writer crashes at the parent's lock while it
// propagates a leaf split — the slot goes back, so the next same-CN
// writer of the node is not parked behind a holder that has given up.
func TestFailedLockGivesTheSlotBack(t *testing.T) {
	ix, loader := newTestTree(t, DefaultOptions())
	const n = 2000
	for i := uint64(1); i <= n; i++ {
		if err := loader.Insert(i*8, val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	cn := ix.NewComputeNode(64 << 20)
	cl := cn.NewClient()
	// Ascending keys fill the rightmost leaf until it splits: the split's
	// write is the first atomic that is not the leaf lock's.
	inj := &crashAtAtomic{client: cl.DM().ID()}
	ix.fabric.SetFaultInjector(inj)
	key := uint64(n * 8)
	for {
		if key++; key > n*8+1000 {
			t.Fatal("1000 inserts split no leaf")
		}
		inj.n, inj.atomics = 2, 0
		err := cl.Insert(key, val8(key))
		if err == nil {
			continue
		}
		if !errors.Is(err, dmsim.ErrClientCrashed) {
			t.Fatal(err)
		}
		break
	}
	ix.fabric.SetFaultInjector(nil)
	_, path, err := loader.descend(key)
	if err != nil {
		t.Fatal(err)
	}
	if parent := path[len(path)-1].addr; cn.locks.Held(parent.Pack()) {
		t.Fatal("the failed lock left the parent's lock-table slot held")
	}
	if err := cn.NewClient().Insert(key, val8(1)); err != nil {
		t.Fatalf("a second writer of the CN: %v", err)
	}
}
