package rolex

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
// traffic, every counter and the computing-side footprint.
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

	CacheBytes int64 `json:"cache_bytes"`

	NotFound int `json:"not_found"`
	Items    int `json:"items"`
}

type syncHarness struct {
	t    *testing.T
	ix   *Index
	cl   *Client
	sink *obs.Sink
	run  syncRun
}

func newSyncIndex(t *testing.T, opts Options, loadKeys int) *Index {
	t.Helper()
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 64 << 20
	ix, err := Build(dmsim.MustNewFabric(cfg), opts, ycsb.LoadKeys(uint64(loadKeys)), nil)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func newSyncHarness(t *testing.T, name string, ix *Index) *syncHarness {
	t.Helper()
	sink := obs.NewSink(false)
	cn := ix.NewComputeNode()
	cn.SetObserver(sink)
	return &syncHarness{t: t, ix: ix, cl: cn.NewClient(), sink: sink, run: syncRun{Name: name}}
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
	r.CacheBytes = h.ix.CacheBytes()
	return r
}

const (
	syncLoadKeys = 3000
	syncRunOps   = 2500
	syncSeed     = 20240916
)

func ycsbSyncRun(t *testing.T, name string, mix ycsb.Mix, opts Options) syncRun {
	h := newSyncHarness(t, name, newSyncIndex(t, opts, syncLoadKeys))
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

// denseKeys are the pre-trained keys of the scripted runs: multiples of
// 16, so a script can aim inserts between them at one group until its
// main leaf, buddy and overflow chain fill.
func denseKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i+1) * 16
	}
	return keys
}

func newDenseIndex(t *testing.T, opts Options, n int) *Index {
	t.Helper()
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 64 << 20
	ix, err := Build(dmsim.MustNewFabric(cfg), opts, denseKeys(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// deleteHeavySyncRun empties most of every group, probes and scans the
// sparse leaves, overfills a few groups into their overflow chains,
// deletes out of the chains and refills the freed slots.
func deleteHeavySyncRun(t *testing.T, opts Options, name string) syncRun {
	const n = 1600
	h := newSyncHarness(t, name, newDenseIndex(t, opts, n))
	val := func(k uint64, ver uint32) []byte { return ycsb.FillValue(k, opts.ValueSize, ver) }
	for i := uint64(1); i <= n; i++ {
		if i%3 != 0 {
			h.did(h.cl.Delete(i * 16))
		}
	}
	for i := uint64(1); i <= n; i += 2 {
		_, err := h.cl.Search(i * 16)
		h.did(err)
		if i%5 == 0 {
			h.did(h.cl.Update(i*16, val(i, 1)))
		}
		if i%7 == 0 {
			h.did(h.cl.Delete(i * 16)) // some already gone
		}
		if i%13 == 0 {
			h.did(h.cl.Insert(i*16, val(i, 5))) // upsert, or refill of a deleted key
		}
		if i%11 == 0 {
			kvs, err := h.cl.Scan(i*16, 20)
			h.run.Items += len(kvs)
			h.did(err)
		}
	}
	// Fifteen keys between every pair of neighbours in three stretches of
	// the key space: far more than a group and its buddy hold.
	for _, base := range []uint64{100, 700, 1300} {
		for i := base; i < base+12; i++ {
			for j := uint64(1); j < 16; j++ {
				h.did(h.cl.Insert(i*16+j, val(i, 2)))
			}
		}
		for i := base; i < base+12; i++ {
			for j := uint64(1); j < 16; j += 2 {
				h.did(h.cl.Delete(i*16 + j))
			}
			_, err := h.cl.Search(i*16 + 2)
			h.did(err)
			_, err = h.cl.Search(i*16 + 3)
			h.did(err)
			h.did(h.cl.Update(i*16+4, val(i, 3)))
		}
		for i := base; i < base+12; i++ {
			for j := uint64(1); j < 16; j += 4 {
				h.did(h.cl.Insert(i*16+j, val(i, 4)))
			}
		}
		kvs, err := h.cl.Scan(base*16, 150)
		h.run.Items += len(kvs)
		h.did(err)
	}
	kvs, err := h.cl.Scan(0, 4*n)
	h.run.Items += len(kvs)
	h.did(err)
	return h.finish()
}

// twoCNSyncRun interleaves a writer on a second compute node (same
// goroutine, so the interleaving is fixed) with a reader: the writer
// grows groups into their overflow chains and deletes keys between the
// reader's searches, updates, scans and inserts of the same groups.
func twoCNSyncRun(t *testing.T, opts Options, name string) (reader, writer syncRun) {
	const n = 1200
	ix := newDenseIndex(t, opts, n)
	h := newSyncHarness(t, name+"/reader", ix)
	w := newSyncHarness(t, name+"/writer", ix)
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
			kvs, err := h.cl.Scan(i*16-40, 12)
			h.run.Items += len(kvs)
			h.did(err)
		default:
			h.did(h.cl.Insert(i*16+5, val8(i)))
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
// runs and compares every clock, traffic figure and counter with
// testdata/golden/sync_runs.json, byte for byte. The file was written by
// the code at 59340e2, the last commit whose client decoded every
// fetched leaf into freshly allocated entries; it is the bit-level guard
// that reading and writing the images in place changed no verb, and must
// never be regenerated to make a change pass.
func TestSyncRunsMatchGolden(t *testing.T) {
	var runs []syncRun
	for _, mix := range []ycsb.Mix{ycsb.WorkloadA, ycsb.WorkloadC, ycsb.WorkloadE, ycsb.WorkloadLoad} {
		for _, hop := range []bool{false, true} {
			for _, indirect := range []bool{false, true} {
				for _, valueSize := range []int{8, 256} {
					opts := DefaultOptions()
					opts.HopscotchLeaves = hop
					opts.Indirect = indirect
					opts.ValueSize = valueSize
					name := fmt.Sprintf("%s/hop_%s/indirect_%s/val%d", mix.Name, onOff(hop), onOff(indirect), valueSize)
					runs = append(runs, ycsbSyncRun(t, name, mix, opts))
				}
			}
		}
	}
	for _, hop := range []bool{false, true} {
		for _, valueSize := range []int{8, 256} {
			opts := DefaultOptions()
			opts.HopscotchLeaves = hop
			opts.ValueSize = valueSize
			name := fmt.Sprintf("delete_heavy/hop_%s/val%d", onOff(hop), valueSize)
			runs = append(runs, deleteHeavySyncRun(t, opts, name))
		}
		for _, indirect := range []bool{false, true} {
			opts := DefaultOptions()
			opts.HopscotchLeaves = hop
			opts.Indirect = indirect
			r, w := twoCNSyncRun(t, opts, fmt.Sprintf("two_cn/hop_%s/indirect_%s", onOff(hop), onOff(indirect)))
			runs = append(runs, r, w)
		}
	}

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
