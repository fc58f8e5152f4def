package fault_test

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"chime/internal/core"
	"chime/internal/dmsim"
	"chime/internal/fault"
	"chime/internal/obs"
	"chime/internal/rolex"
	"chime/internal/sherman"
	"chime/internal/smartidx"
)

// Chaos harness: all four systems run a write-heavy workload under an
// escalating fault schedule — latency spikes, dropped completions, an
// MN blackout window, and (in the crash variant) two clients torn down
// right after winning a remote lock. After quiescence a clean client
// verifies the recovery invariants:
//
//   - No lost acked updates: every key's stored value is one the owner
//     actually issued, no older than its last acknowledged write.
//   - No duplicate keys and no lost keys: a full scan returns exactly
//     the loaded key set, strictly ascending.
//   - Recovery fired iff a crash occurred: the lease-recovery counters
//     are positive with victims and exactly zero without (a live holder
//     is never stolen from).
//
// Fault decisions are a pure function of (seed, client, per-client verb
// sequence, virtual time) — see internal/fault — so a failure here
// replays under the same seed.

const (
	chaosKeys       = 1024
	chaosWorkers    = 4
	chaosOpsPerWkr  = 3 * chaosKeys / chaosWorkers // ~3 passes over owned keys
	chaosValueSize  = 8
	chaosCacheBytes = 16 << 20

	// The lease must dominate worst-case holder slowness: virtual-clock
	// skew between clients grows with accumulated fault penalties (each
	// ridden-out drop or blackout round adds the verb timeout to one
	// client's clock but not its rivals'), and a lease shorter than that
	// skew lets a contender steal from a live holder. 10 ms of virtual
	// time is far above any penalty this schedule can accumulate while a
	// lock is held, yet costs only ~1.2k backoff spins to ride out when
	// a genuine crash leaves a lock orphaned.
	chaosLeaseNs = 10_000_000
)

// Values are tagged so the verifier can attribute every stored byte:
// load values carry tag 0xFF, worker values carry the worker index.
func loadValue(key uint64) []byte { return encodeValue(0xFF, key) }
func workerValue(w, seq int) []byte {
	return encodeValue(byte(w), uint64(seq))
}
func encodeValue(tag byte, seq uint64) []byte {
	v := make([]byte, chaosValueSize)
	binary.LittleEndian.PutUint64(v, uint64(tag)<<56|seq&((1<<56)-1))
	return v
}
func decodeValue(v []byte) (tag byte, seq uint64) {
	w := binary.LittleEndian.Uint64(v)
	return byte(w >> 56), w & ((1 << 56) - 1)
}

// chaosClient is the slice of each index's API the harness drives.
type chaosClient interface {
	Search(key uint64) ([]byte, error)
	Update(key uint64, value []byte) error
	Scan(start uint64, count int) (keys []uint64, vals [][]byte, err error)
	DM() *dmsim.Client
}

type chaosSystem struct {
	name string
	// setup bootstraps the index on the fabric with lease locks enabled,
	// attaches the sink, loads the keys, and returns a client factory.
	setup func(f *dmsim.Fabric, sink *obs.Sink, keys []uint64, vals map[uint64][]byte) (func() chaosClient, error)
}

// ---- adapters ----

type chimeChaos struct{ cl *core.Client }

func (c chimeChaos) Search(k uint64) ([]byte, error) { return c.cl.Search(k) }
func (c chimeChaos) Update(k uint64, v []byte) error { return c.cl.Update(k, v) }
func (c chimeChaos) DM() *dmsim.Client               { return c.cl.DM() }
func (c chimeChaos) Scan(s uint64, n int) ([]uint64, [][]byte, error) {
	kvs, err := c.cl.Scan(s, n)
	return splitCoreKVs(kvs), coreVals(kvs), err
}
func splitCoreKVs(kvs []core.KV) []uint64 {
	ks := make([]uint64, len(kvs))
	for i, kv := range kvs {
		ks[i] = kv.Key
	}
	return ks
}
func coreVals(kvs []core.KV) [][]byte {
	vs := make([][]byte, len(kvs))
	for i, kv := range kvs {
		vs[i] = kv.Value
	}
	return vs
}

type shermanChaos struct{ cl *sherman.Client }

func (c shermanChaos) Search(k uint64) ([]byte, error) { return c.cl.Search(k) }
func (c shermanChaos) Update(k uint64, v []byte) error { return c.cl.Update(k, v) }
func (c shermanChaos) DM() *dmsim.Client               { return c.cl.DM() }
func (c shermanChaos) Scan(s uint64, n int) ([]uint64, [][]byte, error) {
	kvs, err := c.cl.Scan(s, n)
	ks := make([]uint64, len(kvs))
	vs := make([][]byte, len(kvs))
	for i, kv := range kvs {
		ks[i], vs[i] = kv.Key, kv.Value
	}
	return ks, vs, err
}

type smartChaos struct{ cl *smartidx.Client }

func (c smartChaos) Search(k uint64) ([]byte, error) { return c.cl.Search(k) }
func (c smartChaos) Update(k uint64, v []byte) error { return c.cl.Update(k, v) }
func (c smartChaos) DM() *dmsim.Client               { return c.cl.DM() }
func (c smartChaos) Scan(s uint64, n int) ([]uint64, [][]byte, error) {
	kvs, err := c.cl.Scan(s, n)
	ks := make([]uint64, len(kvs))
	vs := make([][]byte, len(kvs))
	for i, kv := range kvs {
		ks[i], vs[i] = kv.Key, kv.Value
	}
	return ks, vs, err
}

type rolexChaos struct{ cl *rolex.Client }

func (c rolexChaos) Search(k uint64) ([]byte, error) { return c.cl.Search(k) }
func (c rolexChaos) Update(k uint64, v []byte) error { return c.cl.Update(k, v) }
func (c rolexChaos) DM() *dmsim.Client               { return c.cl.DM() }
func (c rolexChaos) Scan(s uint64, n int) ([]uint64, [][]byte, error) {
	kvs, err := c.cl.Scan(s, n)
	ks := make([]uint64, len(kvs))
	vs := make([][]byte, len(kvs))
	for i, kv := range kvs {
		ks[i], vs[i] = kv.Key, kv.Value
	}
	return ks, vs, err
}

func chaosSystems() []chaosSystem {
	return []chaosSystem{
		{name: "CHIME", setup: func(f *dmsim.Fabric, sink *obs.Sink, keys []uint64, vals map[uint64][]byte) (func() chaosClient, error) {
			opts := core.DefaultOptions()
			opts.LeaseLocks = true
			opts.LeaseNs = chaosLeaseNs
			ix, err := core.Bootstrap(f, opts)
			if err != nil {
				return nil, err
			}
			cn := ix.NewComputeNode(chaosCacheBytes, 1<<20)
			cn.SetObserver(sink)
			loader := cn.NewClient()
			for _, k := range keys {
				if err := loader.Insert(k, vals[k]); err != nil {
					return nil, err
				}
			}
			return func() chaosClient { return chimeChaos{cl: cn.NewClient()} }, nil
		}},
		{name: "Sherman", setup: func(f *dmsim.Fabric, sink *obs.Sink, keys []uint64, vals map[uint64][]byte) (func() chaosClient, error) {
			opts := sherman.DefaultOptions()
			opts.LeaseLocks = true
			opts.LeaseNs = chaosLeaseNs
			ix, err := sherman.Bootstrap(f, opts)
			if err != nil {
				return nil, err
			}
			cn := ix.NewComputeNode(chaosCacheBytes)
			cn.SetObserver(sink)
			loader := cn.NewClient()
			for _, k := range keys {
				if err := loader.Insert(k, vals[k]); err != nil {
					return nil, err
				}
			}
			return func() chaosClient { return shermanChaos{cl: cn.NewClient()} }, nil
		}},
		{name: "SMART", setup: func(f *dmsim.Fabric, sink *obs.Sink, keys []uint64, vals map[uint64][]byte) (func() chaosClient, error) {
			opts := smartidx.DefaultOptions()
			opts.LeaseLocks = true
			opts.LeaseNs = chaosLeaseNs
			ix, err := smartidx.Bootstrap(f, opts)
			if err != nil {
				return nil, err
			}
			cn := ix.NewComputeNode(chaosCacheBytes)
			cn.SetObserver(sink)
			loader := cn.NewClient()
			for _, k := range keys {
				if err := loader.Insert(k, vals[k]); err != nil {
					return nil, err
				}
			}
			return func() chaosClient { return smartChaos{cl: cn.NewClient()} }, nil
		}},
		{name: "ROLEX", setup: func(f *dmsim.Fabric, sink *obs.Sink, keys []uint64, vals map[uint64][]byte) (func() chaosClient, error) {
			opts := rolex.DefaultOptions()
			opts.LeaseLocks = true
			opts.LeaseNs = chaosLeaseNs
			ix, err := rolex.Build(f, opts, keys, vals)
			if err != nil {
				return nil, err
			}
			cn := ix.NewComputeNode()
			cn.SetObserver(sink)
			return func() chaosClient { return rolexChaos{cl: cn.NewClient()} }, nil
		}},
	}
}

func chaosFabric() *dmsim.Fabric {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 96 << 20
	return dmsim.MustNewFabric(cfg)
}

// workerLog tracks one worker's issued and acknowledged updates.
type workerLog struct {
	issued  map[uint64]uint64 // key -> number of updates issued (seqs 0..n-1)
	acked   map[uint64]uint64 // key -> 1 + seq of last acked update
	crashed bool
}

func TestChaosRecovery(t *testing.T) {
	for _, sys := range chaosSystems() {
		sys := sys
		t.Run(sys.name, func(t *testing.T) {
			runChaos(t, sys, true)
		})
	}
}

func TestChaosFaultsWithoutCrashes(t *testing.T) {
	for _, sys := range chaosSystems() {
		sys := sys
		t.Run(sys.name, func(t *testing.T) {
			runChaos(t, sys, false)
		})
	}
}

func runChaos(t *testing.T, sys chaosSystem, withCrashes bool) {
	f := chaosFabric()
	sink := obs.NewSink(false)
	f.SetObserver(sink)

	keys := make([]uint64, chaosKeys)
	vals := make(map[uint64][]byte, chaosKeys)
	for i := range keys {
		k := uint64(i + 1)
		keys[i] = k
		vals[k] = loadValue(k)
	}
	newClient, err := sys.setup(f, sink, keys, vals)
	if err != nil {
		t.Fatalf("setup: %v", err)
	}

	// The escalating schedule attaches only after the clean load. The
	// blackout window (60 µs) sits inside the retry budget (8 × 10 µs),
	// so it is ridden out by transparent reposts rather than surfacing.
	now := f.Frontier()
	sched := fault.NewSchedule(fault.Config{
		Seed:      4242,
		DropRate:  0.002,
		SpikeRate: 0.01,
		SpikeNs:   20_000,
		Blackouts: map[int][]fault.Window{
			0: {{Start: now + 200_000, End: now + 260_000}},
		},
	})
	f.SetFaultInjector(sched)

	// Workers own interleaved key ranges (key k belongs to worker
	// k % chaosWorkers), so neighbors in every leaf belong to different
	// workers and survivors are guaranteed to traverse a victim's locked
	// node. Victims crash right after winning a lock CAS.
	clients := make([]chaosClient, chaosWorkers)
	for i := range clients {
		clients[i] = newClient()
	}
	victims := map[int]bool{}
	if withCrashes {
		sched.CrashAfterLockAcquires(clients[0].DM().ID(), 7)
		sched.CrashAfterLockAcquires(clients[1].DM().ID(), 23)
		victims[0], victims[1] = true, true
	}

	// Every worker joins the cohort before any starts, and each Syncs
	// before its first verb: the run is then a function of the schedule's
	// seed, not of which goroutine the host starts first.
	logs := make([]*workerLog, chaosWorkers)
	for _, cl := range clients {
		cl.DM().JoinCohort()
	}
	var wg sync.WaitGroup
	for i := range clients {
		logs[i] = &workerLog{issued: map[uint64]uint64{}, acked: map[uint64]uint64{}}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := clients[w]
			dc := cl.DM()
			defer dc.LeaveCohort()
			dc.Sync()
			lg := logs[w]
			for op := 0; op < chaosOpsPerWkr; op++ {
				key := keys[(op*chaosWorkers+w)%chaosKeys]
				seq := lg.issued[key]
				lg.issued[key] = seq + 1
				err := cl.Update(key, workerValue(w, int(seq)))
				if err != nil {
					if dc.Crashed() {
						lg.crashed = true
						return
					}
					t.Errorf("worker %d: Update(%#x): %v", w, key, err)
					return
				}
				lg.acked[key] = seq + 1
			}
		}(i)
	}
	wg.Wait()

	if withCrashes {
		for i := range victims {
			if !logs[i].crashed {
				t.Errorf("victim %d never crashed", i)
			}
		}
		if st := f.FaultStats(); st.Crashes != int64(len(victims)) {
			t.Errorf("FaultStats.Crashes = %d, want %d", st.Crashes, len(victims))
		}
	}

	// Quiesce: detach the injector and verify with a clean client.
	f.SetFaultInjector(nil)
	ver := newClient()

	// Structural consistency: a full scan returns exactly the loaded key
	// set, strictly ascending — no lost keys, no duplicates.
	gotKeys, gotVals, err := ver.Scan(1, chaosKeys+16)
	if err != nil {
		t.Fatalf("verify scan: %v", err)
	}
	if len(gotKeys) != chaosKeys {
		t.Fatalf("scan returned %d keys, want %d", len(gotKeys), chaosKeys)
	}
	for i, k := range gotKeys {
		if k != keys[i] {
			t.Fatalf("scan[%d] = %#x, want %#x (duplicate or lost key)", i, k, keys[i])
		}
	}

	// No lost acked updates: each key's value must be attributable to
	// its owner (or the load), and at least as new as the last ack.
	for i, k := range gotKeys {
		owner := int(k-1) % chaosWorkers
		lg := logs[owner]
		tag, seq := decodeValue(gotVals[i])
		switch {
		case tag == 0xFF:
			if lg.acked[k] != 0 {
				t.Fatalf("key %#x: load value survived but worker %d had %d acked updates (lost ack)",
					k, owner, lg.acked[k])
			}
			if seq != k {
				t.Fatalf("key %#x: corrupt load value (seq %#x)", k, seq)
			}
		case int(tag) == owner:
			if seq >= lg.issued[k] {
				t.Fatalf("key %#x: value seq %d was never issued (max %d)", k, seq, lg.issued[k])
			}
			if seq+1 < lg.acked[k] {
				t.Fatalf("key %#x: value seq %d older than last acked %d (lost ack)", k, seq, lg.acked[k]-1)
			}
		default:
			t.Fatalf("key %#x: value tagged %d, owner is %d", k, tag, owner)
		}
	}

	// Spot-check Search agrees with Scan on a few keys.
	for _, k := range []uint64{1, chaosKeys / 2, chaosKeys} {
		if _, err := ver.Search(k); err != nil {
			t.Fatalf("verify Search(%#x): %v", k, err)
		}
	}

	// Recovery counters: positive iff a victim died holding a lock.
	snap := sink.Registry().Snapshot()
	expired := snap.Counters[obs.NameLeaseExpired]
	recov := snap.Counters[obs.NameRecovery]
	if withCrashes {
		if recov == 0 {
			t.Errorf("no lease recoveries despite %d crashed lock holders", len(victims))
		}
	} else {
		if expired != 0 || recov != 0 {
			t.Errorf("lease expiry fired on live holders: expired=%d recoveries=%d", expired, recov)
		}
	}
	if testing.Verbose() {
		st := f.FaultStats()
		fmt.Printf("%s crashes=%v: faults{timeouts=%d retries=%d crashes=%d} expired=%d recovered=%d\n",
			sys.name, withCrashes, st.Timeouts, st.Retries, st.Crashes, expired, recov)
	}
}
