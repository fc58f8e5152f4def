package smartidx

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"

	"chime/internal/dmsim"
	"chime/internal/obs"
	"chime/internal/ycsb"
)

// syncRun is everything one scripted single-goroutine run leaves behind
// that the client code determines: the final virtual clock, the fabric
// traffic, every counter and the node cache's statistics and footprint.
type syncRun struct {
	Name string `json:"name"`
	Ops  int    `json:"ops"`

	ClockNs      int64 `json:"clock_ns"`
	Trips        int64 `json:"trips"`
	Reads        int64 `json:"reads"`
	Writes       int64 `json:"writes"`
	Atomics      int64 `json:"atomics"`
	RPCs         int64 `json:"rpcs"`
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`

	Retries       int64 `json:"retries"`
	TornReads     int64 `json:"torn_reads"`
	LockBackoffs  int64 `json:"lock_backoffs"`
	SiblingChases int64 `json:"sibling_chases"`
	Splits        int64 `json:"splits"`

	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	CacheNodes  int64 `json:"cache_nodes"`
	CacheBytes  int64 `json:"cache_bytes"`

	NotFound int `json:"not_found"`
	Items    int `json:"items"`
}

type syncHarness struct {
	t    *testing.T
	cn   *ComputeNode
	cl   *Client
	sink *obs.Sink
	run  syncRun
}

func newSyncIndex(t *testing.T, opts Options) *Index {
	t.Helper()
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 64 << 20
	ix, err := Bootstrap(dmsim.MustNewFabric(cfg), opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func newSyncHarness(t *testing.T, name string, ix *Index, cacheBytes int64) *syncHarness {
	t.Helper()
	sink := obs.NewSink(false)
	cn := ix.NewComputeNode(cacheBytes)
	cn.SetObserver(sink)
	return &syncHarness{t: t, cn: cn, cl: cn.NewClient(), sink: sink, run: syncRun{Name: name}}
}

func (h *syncHarness) did(err error) {
	h.t.Helper()
	h.run.Ops++
	if errors.Is(err, ErrNotFound) {
		h.run.NotFound++
	} else if err != nil {
		h.t.Fatalf("%s: op %d: %v", h.run.Name, h.run.Ops, err)
	}
}

func (h *syncHarness) finish() syncRun {
	r := h.run
	st := h.cl.DM().Stats()
	r.ClockNs = h.cl.DM().Now()
	r.Trips, r.Reads, r.Writes, r.Atomics, r.RPCs = st.Trips, st.Reads, st.Writes, st.Atomics, st.RPCs
	r.BytesRead, r.BytesWritten = st.BytesRead, st.BytesWritten
	reg := h.sink.Registry()
	r.Retries = reg.Counter(obs.NameRetry).Load()
	r.TornReads = reg.Counter(obs.NameTornRead).Load()
	r.LockBackoffs = reg.Counter(obs.NameLockBackoff).Load()
	r.SiblingChases = reg.Counter(obs.NameSiblingChase).Load()
	r.Splits = reg.Counter(obs.NameSplit).Load()
	r.CacheHits, r.CacheMisses, r.CacheNodes, r.CacheBytes = h.cn.CacheStats()
	return r
}

const (
	syncLoadKeys = 3000
	syncRunOps   = 2500
	syncSeed     = 20240916
)

func ycsbSyncRun(t *testing.T, name string, mix ycsb.Mix, opts Options, cacheBytes int64) syncRun {
	h := newSyncHarness(t, name, newSyncIndex(t, opts), cacheBytes)
	for _, k := range ycsb.LoadKeys(syncLoadKeys) {
		h.did(h.cl.Insert(k, ycsb.FillValue(k, opts.ValueSize, 0)))
	}
	gen := ycsb.MustNewGenerator(mix, ycsb.NewKeySpace(syncLoadKeys), syncSeed)
	for i := 0; i < syncRunOps; i++ {
		op := gen.Next()
		switch op.Kind {
		case ycsb.OpRead:
			_, err := h.cl.Search(op.Key)
			h.did(err)
		case ycsb.OpUpdate:
			h.did(h.cl.Update(op.Key, ycsb.FillValue(op.Key, opts.ValueSize, uint32(i))))
		case ycsb.OpInsert:
			h.did(h.cl.Insert(op.Key, ycsb.FillValue(op.Key, opts.ValueSize, 0)))
		case ycsb.OpScan:
			kvs, err := h.cl.Scan(op.Key, op.ScanLen)
			h.run.Items += len(kvs)
			h.did(err)
		}
	}
	return h.finish()
}

// scriptKey spreads ids over a few high-byte prefixes and packs them
// densely below, so the scripted runs grow every node kind (Node4 up to
// Node256), split compressed prefixes, and delete out of Node48s.
func scriptKey(i uint64) uint64 {
	return (i%5+1)<<56 | (i%3)<<40 | 0x33<<32 | i/5*3
}

// deleteHeavySyncRun grows a tree with every node kind, deletes most of
// it, probes and scans what is left, and refills the cleared slots.
func deleteHeavySyncRun(t *testing.T, valueSize int, cacheBytes int64, name string) syncRun {
	opts := DefaultOptions()
	opts.ValueSize = valueSize
	h := newSyncHarness(t, name, newSyncIndex(t, opts), cacheBytes)
	const n = 2400
	val := func(k uint64, ver uint32) []byte { return ycsb.FillValue(k, valueSize, ver) }
	for i := uint64(0); i < n; i++ {
		h.did(h.cl.Insert(scriptKey(i), val(i, 0)))
	}
	for i := uint64(0); i < n; i++ {
		if i%3 != 0 {
			h.did(h.cl.Delete(scriptKey(i)))
		}
	}
	for i := uint64(0); i < n; i += 2 {
		_, err := h.cl.Search(scriptKey(i))
		h.did(err)
		if i%5 == 0 {
			h.did(h.cl.Update(scriptKey(i), val(i, 1)))
		}
		if i%7 == 0 {
			h.did(h.cl.Delete(scriptKey(i))) // some already gone
		}
		if i%13 == 0 {
			h.did(h.cl.Insert(scriptKey(i), val(i, 5))) // upsert, or refill of a deleted key
		}
		if i%11 == 0 {
			kvs, err := h.cl.Scan(scriptKey(i), 20)
			h.run.Items += len(kvs)
			h.did(err)
		}
	}
	for i := uint64(0); i < n; i += 2 {
		h.did(h.cl.Insert(scriptKey(i)+1, val(i, 2)))
	}
	kvs, err := h.cl.Scan(0, 3*n)
	h.run.Items += len(kvs)
	h.did(err)
	return h.finish()
}

// staleCacheSyncRun measures a reader whose node cache goes stale: a
// writer on a second compute node (same goroutine, so the interleaving
// is fixed) expands nodes, splits prefixes and deletes keys between the
// reader's ops, so the reader's cached nodes route to invalidated nodes,
// miss fresh installs and name replaced leaves.
func staleCacheSyncRun(t *testing.T, name string) (reader, writer syncRun) {
	ix := newSyncIndex(t, DefaultOptions())
	h := newSyncHarness(t, name+"/reader", ix, 64<<20)
	w := newSyncHarness(t, name+"/writer", ix, 64<<20)

	const n = 1500
	for i := uint64(0); i < n; i++ {
		h.did(h.cl.Insert(scriptKey(i)<<4, val8(i)))
	}
	for i := uint64(0); i < n; i += 2 { // warm the reader's cache
		_, err := h.cl.Search(scriptKey(i) << 4)
		h.did(err)
	}
	for i := uint64(0); i < n; i++ {
		k := scriptKey(i) << 4
		for j := uint64(1); j <= 3; j++ {
			w.did(w.cl.Insert(k+j, val8(i)))
		}
		if i%9 == 0 {
			w.did(w.cl.Delete(k))
		}
		if i%50 == 0 { // a key diverging inside a compressed prefix
			w.did(w.cl.Insert(k^0x11<<32, val8(i)))
		}
		_, err := h.cl.Search(k)
		h.did(err)
		switch i % 4 {
		case 0:
			h.did(h.cl.Update(k+2, val8(i+7)))
		case 1:
			_, err := h.cl.Search(k + 3)
			h.did(err)
		case 2:
			kvs, err := h.cl.Scan(k-40, 12)
			h.run.Items += len(kvs)
			h.did(err)
		default:
			h.did(h.cl.Insert(k+5, val8(i)))
		}
	}
	return h.finish(), w.finish()
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// TestSyncRunsMatchGolden replays a grid of scripted single-goroutine
// runs and compares every clock, traffic figure, counter and cache
// statistic with testdata/golden/sync_runs.json, byte for byte. The file
// was written by the code at 59340e2, the last commit whose client
// decoded every fetched node into two Go maps; it is the bit-level guard
// that looking children up in the fetched image changed no verb and no
// cache decision, and must never be regenerated to make a change pass.
func TestSyncRunsMatchGolden(t *testing.T) {
	var runs []syncRun
	for _, mix := range []ycsb.Mix{ycsb.WorkloadA, ycsb.WorkloadC, ycsb.WorkloadE, ycsb.WorkloadLoad} {
		for _, cache := range []bool{true, false} {
			for _, valueSize := range []int{8, 256} {
				opts := DefaultOptions()
				opts.ValueSize = valueSize
				var cacheBytes int64
				if cache {
					cacheBytes = 64 << 20
				}
				name := fmt.Sprintf("%s/cache_%s/val%d", mix.Name, onOff(cache), valueSize)
				runs = append(runs, ycsbSyncRun(t, name, mix, opts, cacheBytes))
			}
		}
	}
	runs = append(runs,
		deleteHeavySyncRun(t, 8, 64<<20, "delete_heavy/cache_on/val8"),
		deleteHeavySyncRun(t, 256, 64<<20, "delete_heavy/cache_on/val256"),
		deleteHeavySyncRun(t, 8, 0, "delete_heavy/cache_off/val8"),
		// A budget of a few nodes: constant eviction, and Node256s too
		// large to cache at all.
		deleteHeavySyncRun(t, 8, 3000, "delete_heavy/cache_tiny/val8"),
	)
	r, w := staleCacheSyncRun(t, "stale_cache")
	runs = append(runs, r, w)

	got, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	const path = "testdata/golden/sync_runs.json"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var wantRuns []syncRun
	if err := json.Unmarshal(want, &wantRuns); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for i := range runs {
		if i < len(wantRuns) && runs[i] != wantRuns[i] {
			t.Errorf("run %s differs from the golden:\n got  %+v\n want %+v", runs[i].Name, runs[i], wantRuns[i])
		}
	}
	t.Fatalf("%s does not match (%d runs now, %d in the file)", path, len(runs), len(wantRuns))
}
