package sherman

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"testing"

	"chime/internal/dmsim"
	"chime/internal/obs"
	"chime/internal/ycsb"
)

// syncRun is everything one scripted single-goroutine run leaves behind
// that the synchronous entry points determine: the final virtual clock,
// the fabric traffic and every optimistic-retry / structural counter.
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

	NotFound int `json:"not_found"`
	Items    int `json:"items"`

	// CacheBytes is pinned only by the rows added after the file was
	// first written (pinCacheBytes), so the older rows keep their bytes.
	CacheBytes int64 `json:"cache_bytes,omitempty"`
}

type syncHarness struct {
	t    *testing.T
	cn   *ComputeNode
	cl   *Client
	sink *obs.Sink
	run  syncRun

	pinCacheBytes bool
	// peer is the other client of a script with two (stale_cache): one
	// tree, so one verdict on whether the split rule moved it.
	peer *syncHarness
}

func newSyncHarness(t *testing.T, name string, ix *Index, cacheBytes int64) *syncHarness {
	t.Helper()
	sink := obs.NewSink(false)
	cn := ix.NewComputeNode(cacheBytes)
	cn.SetObserver(sink)
	return &syncHarness{t: t, cn: cn, cl: cn.NewClient(), sink: sink, run: syncRun{Name: name}}
}

func newSyncIndex(t *testing.T, opts Options) *Index {
	t.Helper()
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 256 << 20
	ix, err := Bootstrap(dmsim.MustNewFabric(cfg), opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix
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

// scan is did for a Scan, which also counts the items returned.
func (h *syncHarness) scan(start uint64, count int) {
	h.t.Helper()
	kvs, err := h.cl.Scan(start, count)
	h.run.Items += len(kvs)
	h.did(err)
}

// runSplitRows records, by row name, whether the split rule moved a
// split of the row's tree off the median (obs.NameRunSplit).
var runSplitRows = map[string]bool{}

func (h *syncHarness) runSplits() int64 {
	return h.sink.Registry().Counter(obs.NameRunSplit).Load()
}

func (h *syncHarness) finish() syncRun {
	runSplitRows[h.run.Name] = h.runSplits() > 0 || h.peer != nil && h.peer.runSplits() > 0
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
	var used int64
	r.CacheHits, r.CacheMisses, r.CacheNodes, used = h.cn.CacheStats()
	if h.pinCacheBytes {
		r.CacheBytes = used
	}
	return r
}

const (
	syncLoadKeys = 3000
	syncRunOps   = 2500
	syncSeed     = 20240916
)

func ycsbSyncRun(t *testing.T, name string, mix ycsb.Mix, opts Options, cacheBytes int64) syncRun {
	return ycsbSyncRunOn(newSyncHarness(t, name, newSyncIndex(t, opts), cacheBytes), mix, opts)
}

func ycsbSyncRunOn(h *syncHarness, mix ycsb.Mix, opts Options) syncRun {
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
			h.scan(op.Key, op.ScanLen)
		}
	}
	return h.finish()
}

// staleCacheSyncRun measures a reader whose node cache goes stale: a
// writer on a second compute node (same goroutine, so the interleaving
// is fixed) splits leaves and deletes keys between the reader's ops, so
// the reader's cached parents route to split leaves (fence restarts,
// B-link sibling chases) and absent keys.
func staleCacheSyncRun(t *testing.T, indirect bool) (reader, writer syncRun) {
	opts := DefaultOptions()
	opts.Indirect = indirect
	opts.SpanSize = 16
	ix := newSyncIndex(t, opts)
	name := "stale_cache/indirect_" + onOff(indirect)
	h := newSyncHarness(t, name+"/reader", ix, 64<<20)
	w := newSyncHarness(t, name+"/writer", ix, 64<<20)

	const n = 2000
	for i := uint64(1); i <= n; i++ {
		h.did(h.cl.Insert(i*16, val8(i)))
	}
	for i := uint64(1); i <= n; i += 2 { // warm the reader's cache
		_, err := h.cl.Search(i * 16)
		h.did(err)
	}
	for i := uint64(1); i <= n; i++ {
		for j := uint64(1); j <= 3; j++ {
			w.did(w.cl.Insert(i*16+j, val8(i)))
		}
		if i%9 == 0 {
			w.did(w.cl.Delete(i * 16))
		}
		_, err := h.cl.Search(i * 16)
		h.did(err)
		switch i % 4 {
		case 0:
			h.did(h.cl.Update(i*16+2, val8(i+7)))
		case 1:
			_, err := h.cl.Search(i*16 + 3)
			h.did(err)
		case 2:
			h.scan(i*16-40, 12)
		default:
			h.did(h.cl.Insert(i*16+5, val8(i)))
		}
	}
	h.peer, w.peer = w, h
	return h.finish(), w.finish()
}

// deleteHeavySyncRun empties most of a small-span tree, probes and scans
// the sparse leaves, then refills them: deletes, absent-key reads and
// updates, and inserts landing in freed slots instead of splitting.
func deleteHeavySyncRun(t *testing.T, valueSize int) syncRun {
	opts := DefaultOptions()
	opts.SpanSize = 16
	opts.ValueSize = valueSize
	h := newSyncHarness(t, fmt.Sprintf("delete_heavy/val%d", valueSize), newSyncIndex(t, opts), 64<<20)
	h.pinCacheBytes = true
	const n = 2400
	val := func(k uint64, ver uint32) []byte { return ycsb.FillValue(k, valueSize, ver) }
	for i := uint64(1); i <= n; i++ {
		h.did(h.cl.Insert(i*8, val(i, 0)))
	}
	for i := uint64(1); i <= n; i++ {
		if i%3 != 0 {
			h.did(h.cl.Delete(i * 8))
		}
	}
	for i := uint64(1); i <= n; i += 2 {
		_, err := h.cl.Search(i * 8)
		h.did(err)
		if i%5 == 0 {
			h.did(h.cl.Update(i*8, val(i, 1)))
		}
		if i%7 == 0 {
			h.did(h.cl.Delete(i * 8)) // some already gone
		}
		if i%13 == 0 {
			h.did(h.cl.Insert(i*8, val(i, 5))) // upsert, or refill of a deleted key
		}
		if i%11 == 0 {
			h.scan(i*8, 20)
		}
	}
	for i := uint64(1); i <= n; i += 2 {
		h.did(h.cl.Insert(i*8+1, val(i, 2)))
	}
	h.scan(0, 3*n)
	return h.finish()
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// TestSyncRunsMatchGolden replays a grid of scripted runs through the
// synchronous entry points and compares every clock, traffic figure and
// counter with testdata/golden/sync_runs.json, byte for byte. The file
// was written by the code at 97a9150, before the synchronous descent and
// point-read code was replaced by the posted-verb state machines stepped
// at depth 1. It is the only bit-level guard of the synchronous entry
// points and must never be regenerated to make a change pass.
//
// One declared difference is in the file. On an unknown root 97a9150's
// synchronous descent read the super block and then charged the local
// work; the one descent charges and then posts the read. A lone client
// ends on the same clock either way (all 16 one-client rows are
// 97a9150's output untouched), but the two stale_cache/indirect_off rows
// share the MN's NIC with a second client, so the 150 ns shift changes
// one queueing wait: their clocks are those of 97a9150 with only that
// one reorder applied (102842588 / 102764586; unmodified it gives
// 102842738 / 102764736, every other field identical).
func TestSyncRunsMatchGolden(t *testing.T) {
	var runs []syncRun
	for _, mix := range []ycsb.Mix{ycsb.WorkloadA, ycsb.WorkloadC, ycsb.WorkloadE, ycsb.WorkloadLoad} {
		for _, cache := range []bool{true, false} {
			for _, indirect := range []bool{false, true} {
				opts := DefaultOptions()
				opts.Indirect = indirect
				var cacheBytes int64
				if cache {
					cacheBytes = 64 << 20
				}
				name := fmt.Sprintf("%s/cache_%s/indirect_%s", mix.Name, onOff(cache), onOff(indirect))
				runs = append(runs, ycsbSyncRun(t, name, mix, opts, cacheBytes))
			}
		}
	}
	for _, indirect := range []bool{false, true} {
		r, w := staleCacheSyncRun(t, indirect)
		runs = append(runs, r, w)
	}

	// Rows written by 59340e2, the last commit that decoded every fetched
	// node into fresh slices: 256-byte inline values and 64-byte keys make
	// leaf and internal entry cells span cache lines, and the delete-heavy
	// script refills freed slots.
	for _, mix := range []ycsb.Mix{ycsb.WorkloadA, ycsb.WorkloadC, ycsb.WorkloadE, ycsb.WorkloadLoad} {
		for _, indirect := range []bool{false, true} {
			opts := DefaultOptions()
			opts.ValueSize = 256
			opts.Indirect = indirect
			name := fmt.Sprintf("%s/val256/indirect_%s", mix.Name, onOff(indirect))
			h := newSyncHarness(t, name, newSyncIndex(t, opts), 64<<20)
			h.pinCacheBytes = true
			runs = append(runs, ycsbSyncRunOn(h, mix, opts))
		}
	}
	for _, mix := range []ycsb.Mix{ycsb.WorkloadA, ycsb.WorkloadLoad} {
		opts := DefaultOptions()
		opts.KeySize = 64
		h := newSyncHarness(t, mix.Name+"/key64", newSyncIndex(t, opts), 64<<20)
		h.pinCacheBytes = true
		runs = append(runs, ycsbSyncRunOn(h, mix, opts))
	}
	runs = append(runs, deleteHeavySyncRun(t, 8), deleteHeavySyncRun(t, 256))

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
	if *rewriteSplitRows {
		rewriteGoldenSplitRows(t, path, runs, wantRuns)
		return
	}
	for i := range runs {
		if i < len(wantRuns) && runs[i] != wantRuns[i] {
			t.Errorf("run %s differs from the golden:\n got  %+v\n want %+v", runs[i].Name, runs[i], wantRuns[i])
		}
	}
	t.Fatalf("%s does not match (%d runs now, %d in the file)", path, len(runs), len(wantRuns))
}

// rewriteSplitRows is for a declared change of where nodes split
// (nodelayout.SplitPoint) and nothing else: it rewrites the golden's rows
// in whose trees the rule moved a split off the median and refuses to
// touch any other.
var rewriteSplitRows = flag.Bool("rewrite-split-rows", false,
	"rewrite the rows of testdata/golden/sync_runs.json in whose trees a split left the median; any other differing row still fails")

// rewriteGoldenSplitRows writes the file back with the differing rows of
// such trees replaced, every other row as it was, and logs old → new for
// the README beside the file.
func rewriteGoldenSplitRows(t *testing.T, path string, runs, wantRuns []syncRun) {
	if len(runs) != len(wantRuns) {
		t.Fatalf("%d runs now, %d in %s: -rewrite-split-rows neither adds nor removes rows", len(runs), len(wantRuns), path)
	}
	merged := append([]syncRun(nil), wantRuns...)
	for i, r := range runs {
		old := wantRuns[i]
		switch {
		case r == old:
		case r.Name != old.Name || !runSplitRows[r.Name]:
			t.Errorf("run %s differs from the golden and no split of its tree left the median: not rewritten\n got  %+v\n want %+v", r.Name, r, old)
		default:
			merged[i] = r
			t.Logf("| `%s` | %d → %d | %d → %d | %d → %d | %d → %d |", r.Name, old.ClockNs, r.ClockNs, old.Trips, r.Trips, old.BytesRead, r.BytesRead, old.Splits, r.Splits)
		}
	}
	if t.Failed() {
		return
	}
	out, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
