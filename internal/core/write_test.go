package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"chime/internal/dmsim"
	"chime/internal/ycsb"
)

func checkAll(t *testing.T, cl *Client, want map[uint64]uint64) {
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

func TestInsertBatchBasic(t *testing.T) {
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
			checkAll(t, cl, want)
		})
	}
}

func TestInsertBatchUpsert(t *testing.T) {
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
	checkAll(t, cl, want)
}

// TestUpdateBatchMixed checks per-key error isolation: absent keys
// report ErrNotFound without disturbing their neighbors' updates.
func TestUpdateBatchMixed(t *testing.T) {
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
	checkAll(t, cl, want)
	for i := range keys {
		if i%3 != 0 {
			if _, err := cl.Search(keys[i]); !errors.Is(err, ErrNotFound) {
				t.Fatalf("absent key %d materialized: %v", i, err)
			}
		}
	}
}

// TestInsertBatchSplits starts from an empty tree (the root is a leaf)
// and pushes enough keys through one batch to force repeated leaf and
// root splits mid-flight: every key must land despite the restarts.
func TestInsertBatchSplits(t *testing.T) {
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
	checkAll(t, cl, want)
}

// TestWriteBatchCombining verifies per-leaf write combining: on a
// root-leaf tree every key of the batch resolves to the same leaf, so
// one cycle should absorb the whole admission window.
func TestWriteBatchCombining(t *testing.T) {
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
	checkAll(t, cl, want)
}

// TestWriteBatchRestartIsolation hammers the per-key restart paths: two
// concurrent batch writers over interleaved key ranges force splits,
// stale cached parents, and lock conflicts while each op must still
// land or fail only for itself. Run under -race this also gates the
// scheduler's bookkeeping.
func TestWriteBatchRestartIsolation(t *testing.T) {
	ix, err := Bootstrap(testFabric(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cn := ix.NewComputeNode(64<<20, 1<<20)
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

// TestWriteBatchVsSyncWriters races batch writers against synchronous
// Insert/Update/Delete clients on overlapping leaves (disjoint keys):
// the batch path bypasses the local lock table, so this exercises
// remote-CAS vs lock-table interleavings both ways.
func TestWriteBatchVsSyncWriters(t *testing.T) {
	ix, err := Bootstrap(testFabric(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cn := ix.NewComputeNode(64<<20, 1<<20)
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

// TestInsertBatchIndirect runs the batch path in indirect (KV-block)
// mode, where prepared values are out-of-line pointer blocks.
func TestInsertBatchIndirect(t *testing.T) {
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

// TestFailedLockGivesTheSlotBack: a one-key write takes its leaf's slot
// in the CN's lock table before its lock CAS; when the CAS fails with an
// error the write gives the slot back, so the next same-CN writer of the
// leaf is not parked behind a holder that has given up.
func TestFailedLockGivesTheSlotBack(t *testing.T) {
	f := testFabric(t)
	ix, err := Bootstrap(f, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cn := ix.NewComputeNode(64<<20, 0)
	cl := cn.NewClient()
	for i := uint64(1); i <= 200; i++ {
		if err := cl.Insert(i*7, val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	const key = 100 * 7
	ref, err := cl.descend(key)
	if err != nil {
		t.Fatal(err)
	}
	f.SetFaultInjector(&crashAtAtomic{client: cl.DM().ID(), n: 1})
	if err := cl.Insert(key, val8(1)); !errors.Is(err, dmsim.ErrClientCrashed) {
		t.Fatalf("Insert with its lock CAS crashed = %v, want %v", err, dmsim.ErrClientCrashed)
	}
	f.SetFaultInjector(nil)
	if cn.locks.Held(ref.addr.Pack()) {
		t.Fatal("the failed lock left the leaf's lock-table slot held")
	}
	if err := cn.NewClient().Insert(key, val8(2)); err != nil {
		t.Fatalf("a second writer of the CN: %v", err)
	}
}

// TestBatchWritesLeaveTheLockTableAlone: a batch never takes a lock-table
// slot, so it must not free or hand on one either. Client A of a CN holds
// a leaf's slot; client B of the same CN updates a key of that leaf
// through UpdateBatch; the slot is still A's afterwards.
func TestBatchWritesLeaveTheLockTableAlone(t *testing.T) {
	_, cl := newTestTree(t, DefaultOptions())
	for i := uint64(1); i <= 200; i++ {
		if err := cl.Insert(i*7, val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	const key = 100 * 7
	ref, err := cl.descend(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, handover := cl.cn.locks.Acquire(cl.DM(), ref.addr.Pack()); handover {
		t.Fatal("A's Acquire of a free slot came by handover")
	}
	b := cl.cn.NewClient()
	for _, depth := range []int{1, 4} {
		if err := b.UpdateBatch([]uint64{key}, [][]byte{val8(9)}, depth)[0]; err != nil {
			t.Fatal(err)
		}
		if !cl.cn.locks.Held(ref.addr.Pack()) {
			t.Fatalf("UpdateBatch at depth %d freed the slot client A holds", depth)
		}
	}
	cl.cn.locks.ReleaseRemote(cl.DM(), ref.addr.Pack())
}
