// Package bench is the benchmark harness that regenerates every table
// and figure of the CHIME paper's evaluation (§3 and §5) on the
// simulated DM fabric. It wraps the four indexes (CHIME, Sherman,
// SMART, ROLEX) behind one interface, drives them with YCSB workloads
// from multiple simulated clients, and reports throughput in virtual
// time — so bandwidth-bound and IOPS-bound regimes appear exactly where
// the NIC model puts them, independent of host speed.
package bench

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"chime/internal/dmsim"
	"chime/internal/obs"
	"chime/internal/offroute"
	"chime/internal/rdwc"
	"chime/internal/ycsb"
)

// ErrNotFound is the not-found error of every index under test: the
// four share one sentinel (offroute.ErrNotFound).
var ErrNotFound = offroute.ErrNotFound

// Client is the per-simulated-client view of an index under test.
type Client interface {
	Search(key uint64) ([]byte, error)
	Insert(key uint64, value []byte) error
	Update(key uint64, value []byte) error
	Delete(key uint64) error
	// Scan returns the number of items found.
	Scan(start uint64, count int) (int, error)
	// DM exposes the fabric client (virtual clock, traffic counters).
	DM() *dmsim.Client
}

// BatchSearcher is the optional pipelined multi-get interface: clients
// that multiplex several lookups over posted verbs implement it.
// Results are positionally aligned with keys; absent keys report
// ErrNotFound.
type BatchSearcher interface {
	SearchBatch(keys []uint64, depth int) ([][]byte, []error)
}

// BatchWriter is the optional pipelined write interface: clients whose
// write path drives several keys through posted lock/fetch/write state
// machines implement it. Results align positionally with keys;
// UpdateBatch reports ErrNotFound per absent key.
type BatchWriter interface {
	MultiPut(keys []uint64, values [][]byte, depth int) []error
	UpdateBatch(keys []uint64, values [][]byte, depth int) []error
}

// WriteCombineReporter exposes per-client write-combining counters from
// the batch write pipeline (cycles executed, keys absorbed into an
// already-open same-leaf cycle).
type WriteCombineReporter interface {
	WriteCombineStats() (cycles, combinedKeys int64)
}

// System is one index instance under test.
type System interface {
	Name() string
	NewClient() Client
	// CacheBytes reports the computing-side cache consumption after the
	// run: internal-node cache plus any auxiliary structures (hotspot
	// buffer, learned models).
	CacheBytes() int64
}

// SystemConfig carries everything a factory needs to stand up a system.
type SystemConfig struct {
	Fabric *dmsim.Fabric

	// LoadKeys are bulk-loaded before the measured phase. ROLEX trains
	// its models over exactly these keys.
	LoadKeys []uint64

	ValueSize int
	Indirect  bool

	// CacheBytes is the per-CN cache budget (internal nodes).
	CacheBytes int64
	// HotspotBytes is CHIME's hotspot-buffer budget.
	HotspotBytes int64

	// SpanSize / Neighborhood override index defaults when non-zero.
	SpanSize     int
	Neighborhood int

	// Ablations (CHIME only).
	DisablePiggyback   bool
	DisableReplication bool
	DisableSpeculation bool

	// DisableRDWC turns off the read-delegation/write-combining layer
	// (applied to every system by default, as in §5.1).
	DisableRDWC bool

	// Offload selects the hybrid one-sided/offload protocol wired into
	// every system's clients: off (zero value) keeps today's pure
	// one-sided paths, on routes every supported op through the MN-side
	// verbs, adaptive lets the per-client EWMA router pick per op (see
	// internal/offroute).
	Offload offroute.Mode

	// LeaseLocks switches every system's remote locks to lease words so
	// orphaned locks (crashed holders) are stolen and recovered instead
	// of spinning forever; LeaseNs overrides the lease length when > 0.
	// Used by the faults experiment.
	LeaseLocks bool
	LeaseNs    int64

	// LoadClients parallelizes the bulk load (default 8).
	LoadClients int

	// Obs, when set, is wired into the system's compute node (by the
	// factory) and the fabric's NICs (by buildSystem), enabling the
	// protocol-event counters and per-operation trace spans.
	Obs *Observer
}

// Factory builds and loads a system.
type Factory func(cfg SystemConfig) (System, error)

// Latency histograms are obs.Histogram: the log-bucketed histogram this
// harness grew first now lives in internal/obs, shared with the NIC
// service/queue distributions.

// RunConfig drives one measured workload phase.
type RunConfig struct {
	Mix          ycsb.Mix
	Clients      int
	OpsPerClient int
	ValueSize    int
	// KeySpace is the shared logical item counter; usually seeded with
	// len(LoadKeys).
	KeySpace *ycsb.KeySpace
	Seed     int64

	// ReadDepth > 0 accumulates point reads into batches of batchKeys
	// keys and issues each through BatchSearcher.SearchBatch at that
	// pipeline depth; WriteDepth > 0 does the same for inserts
	// (BatchWriter.MultiPut) and updates (UpdateBatch), each kind in a
	// batch of its own. Depth 1 is sequential ops through the batch code
	// path; zero keeps the kind synchronous. A synchronous op first
	// flushes every pending batch, as a coroutine-multiplexed client
	// would. The system's clients must implement the interfaces asked
	// for (the RDWC wrapper hides them).
	ReadDepth  int
	WriteDepth int

	// Obs, when set, folds the observer's registry deltas into the
	// Result and records the row for the metrics JSON artifact. The
	// system must have been built with the same observer (SystemConfig
	// .Obs) for the protocol-event columns to be populated.
	Obs *Observer
}

// batchKeys is how many same-kind keys a batched run accumulates before
// it issues them.
const batchKeys = 64

// Result is one measured point.
type Result struct {
	System  string
	Mix     string
	Clients int
	Ops     int64

	// ThroughputMops is ops per virtual microsecond x 1e0 — i.e.
	// million ops per virtual second.
	ThroughputMops float64
	P50Us, P99Us   float64

	TripsPerOp float64
	ReadBytes  float64 // per op
	WriteBytes float64 // per op
	// MaxInflight is the deepest post/poll pipeline any client reached.
	MaxInflight int64

	CacheBytes int64

	// Shape is the tree as the run left it, from one out-of-band census
	// walk (TreeShape); zero for a system that is not a B-tree.
	Shape Shape

	// Observability columns. The combiner, write-combining, cache-hit
	// and NIC-utilization figures are folded on every run; the per-op
	// protocol-event rates (retries, torn reads, lock backoffs, sibling
	// chases, splits, merges, hotspot ratio) come from the observer's
	// registry and stay zero unless the system and run share one
	// RunConfig.Obs.
	RetriesPerOp       float64
	TornReadsPerOp     float64
	LockBackoffsPerOp  float64
	SiblingChasesPerOp float64
	Splits             int64
	Merges             int64
	CacheHitRatio      float64
	HotspotHitRatio    float64
	NICUtilization     float64
	DelegatedReads     int64
	CombinedWrites     int64
	Handoffs           int64 // combined write rounds flushed by a successor
	WCCycles           int64
	WCCombinedKeys     int64

	// Fault-plane columns (zero unless faults are injected and the run
	// has an observer): verb-level transient-fault events per op and the
	// lease-recovery totals.
	VerbTimeoutsPerOp float64
	VerbRetriesPerOp  float64
	LeaseExpired      int64
	Recoveries        int64

	// Offload columns (zero with SystemConfig.Offload off): offload
	// verbs posted per op, MN program fallbacks per op, and the fraction
	// of the run's virtual wall time the MN offload cores spent serving
	// programs (1.0 = the bounded MN compute is saturated).
	OffloadsPerOp    float64
	MNFallbacksPerOp float64
	MNUtilization    float64
}

// CacheHitMissReporter is the optional System interface exposing the
// CN-side node-cache counters (cumulative; Run folds the per-run delta).
type CacheHitMissReporter interface {
	CacheHitMiss() (hits, misses int64)
}

// HotspotReporter is the optional System interface exposing CHIME's
// hotspot-buffer counters (cumulative).
type HotspotReporter interface {
	HotspotHitMiss() (hits, lookups int64)
}

// CombinerReporter is the optional System interface exposing the shared
// read-delegation/write-combining layer.
type CombinerReporter interface {
	Combiner() *rdwc.Combiner
}

// batch is one op kind's pending keys in a batched run, and the batch
// interface call that issues them.
type batch struct {
	keys  []uint64
	vals  [][]byte
	issue func(keys []uint64, vals [][]byte) []error
}

// syncOp runs one op through the synchronous client interface; a key
// that is not there is an outcome, not an error.
func syncOp(cl Client, op ycsb.Op, value []byte) error {
	var err error
	switch op.Kind {
	case ycsb.OpRead:
		_, err = cl.Search(op.Key)
	case ycsb.OpUpdate:
		err = cl.Update(op.Key, value)
	case ycsb.OpInsert:
		err = cl.Insert(op.Key, value)
	case ycsb.OpScan:
		_, err = cl.Scan(op.Key, op.ScanLen)
	case ycsb.OpReadModifyWrite:
		if _, err = cl.Search(op.Key); err == nil || errors.Is(err, ErrNotFound) {
			err = cl.Update(op.Key, value)
		}
	}
	if errors.Is(err, ErrNotFound) {
		return nil
	}
	return err
}

// Run executes the workload against the system and aggregates metrics:
// one closed loop per client, synchronous ops or — per RunConfig
// .ReadDepth/.WriteDepth — batches over posted verbs.
func Run(sys System, cfg RunConfig) (Result, error) {
	if cfg.Clients <= 0 || cfg.OpsPerClient <= 0 {
		return Result{}, fmt.Errorf("bench: bad run config %+v", cfg)
	}
	if cfg.KeySpace == nil {
		return Result{}, fmt.Errorf("bench: RunConfig.KeySpace required")
	}

	// Before-state for the cumulative sources folded as per-run deltas.
	var snapBefore obs.Snapshot
	if cfg.Obs != nil {
		snapBefore = cfg.Obs.Sink().Registry().Snapshot()
	}
	var dlgBefore, cwBefore, hoBefore int64
	comb, _ := sys.(CombinerReporter)
	if comb != nil && comb.Combiner() != nil {
		dlgBefore, cwBefore = comb.Combiner().Stats()
		hoBefore = comb.Combiner().Handoffs()
	}
	var cacheHitsBefore, cacheMissesBefore int64
	cacheRep, _ := sys.(CacheHitMissReporter)
	if cacheRep != nil {
		cacheHitsBefore, cacheMissesBefore = cacheRep.CacheHitMiss()
	}
	var hotHitsBefore, hotLookupsBefore int64
	hotRep, _ := sys.(HotspotReporter)
	if hotRep != nil {
		hotHitsBefore, hotLookupsBefore = hotRep.HotspotHitMiss()
	}

	type clientOut struct {
		hist     *obs.Histogram
		ops      int64
		duration int64 // virtual ns
		stats    dmsim.ClientStats
		err      error
	}
	outs := make([]clientOut, cfg.Clients)
	// Create every client before any measured op runs: clients join the
	// fabric at its current virtual-time frontier, and contention only
	// exists when the whole cohort shares one epoch. (Creating clients
	// inside the goroutines would let earlier-scheduled clients push the
	// frontier past later ones, erasing queueing on a serialized host.)
	clients := make([]Client, cfg.Clients)
	for ci := range clients {
		clients[ci] = sys.NewClient()
		_, searcher := clients[ci].(BatchSearcher)
		_, writer := clients[ci].(BatchWriter)
		if cfg.ReadDepth > 0 && !searcher || cfg.WriteDepth > 0 && !writer {
			// Every client of a system has one type: this is the first
			// client, and nobody has joined the cohort yet.
			return Result{}, fmt.Errorf("bench: %s clients do not implement the batch interfaces (RDWC enabled?)", sys.Name())
		}
		// Cohort membership orders the clients' verbs on the virtual
		// timeline, so the NIC queueing model stays faithful.
		clients[ci].DM().JoinCohort()
	}
	fab := clients[0].DM().Fabric()
	// Restart the flight recorder at the measurement frontier so bulk
	// load traffic (which runs through the same instrumented ops) does
	// not pollute attribution, and anchor the timeline ring there.
	if rec := cfg.Obs.Sink().FlightRecorder(); rec != nil {
		rec.Reset(fab.Frontier())
	}
	cfg.Obs.noteTopology(fab.MNs(), fab.MNs()*fab.MNCores())
	nicServedBefore := fab.TotalNICStats().ServedNs
	mnBefore := fab.TotalMNCPUStats()
	var wg sync.WaitGroup
	for ci := 0; ci < cfg.Clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl := clients[ci]
			defer cl.DM().LeaveCohort()
			// First park before anything shared is touched: from here on
			// this goroutine runs when the scheduler says so, never in
			// host order (dmsim.Client.Sync).
			cl.DM().Sync()
			gen, err := ycsb.NewGenerator(cfg.Mix, cfg.KeySpace, cfg.Seed+int64(ci)*7919)
			if err != nil {
				outs[ci].err = err
				return
			}
			h := obs.NewHistogram()
			dm := cl.DM()
			dm.ResetStats()
			start := dm.Now()
			value := make([]byte, cfg.ValueSize)

			// Pending batches, nil for a kind that runs synchronously.
			// Values are the constant benchmark payload, so one shared
			// slice serves every slot.
			var reads, inserts, updates *batch
			if cfg.ReadDepth > 0 {
				bs := cl.(BatchSearcher)
				reads = &batch{issue: func(keys []uint64, _ [][]byte) []error {
					_, errs := bs.SearchBatch(keys, cfg.ReadDepth)
					return errs
				}}
			}
			if cfg.WriteDepth > 0 {
				bw := cl.(BatchWriter)
				inserts = &batch{issue: func(keys []uint64, vals [][]byte) []error {
					return bw.MultiPut(keys, vals, cfg.WriteDepth)
				}}
				updates = &batch{issue: func(keys []uint64, vals [][]byte) []error {
					return bw.UpdateBatch(keys, vals, cfg.WriteDepth)
				}}
			}
			flush := func(batches ...*batch) error {
				for _, b := range batches {
					if b == nil || len(b.keys) == 0 {
						continue
					}
					t0 := dm.Now()
					for _, err := range b.issue(b.keys, b.vals) {
						if err != nil && !errors.Is(err, ErrNotFound) {
							return err
						}
					}
					// Amortize the batch's virtual time over its keys so
					// the histogram stays per-op.
					per := (dm.Now() - t0) / int64(len(b.keys))
					for range b.keys {
						h.Observe(per)
					}
					b.keys, b.vals = b.keys[:0], b.vals[:0]
				}
				return nil
			}
			batchFor := func(kind ycsb.OpKind) *batch {
				switch kind {
				case ycsb.OpRead:
					return reads
				case ycsb.OpInsert:
					return inserts
				case ycsb.OpUpdate:
					return updates
				}
				return nil
			}
			for i := 0; i < cfg.OpsPerClient; i++ {
				op := gen.Next()
				var err error
				if b := batchFor(op.Kind); b != nil {
					b.keys, b.vals = append(b.keys, op.Key), append(b.vals, value)
					if len(b.keys) >= batchKeys {
						err = flush(b)
					}
				} else if err = flush(reads, inserts, updates); err == nil {
					t0 := dm.Now()
					if err = syncOp(cl, op, value); err == nil {
						h.Observe(dm.Now() - t0)
					}
				}
				if err != nil {
					outs[ci].err = fmt.Errorf("bench: client %d op %d (%v %#x): %w", ci, i, op.Kind, op.Key, err)
					return
				}
			}
			if err := flush(reads, inserts, updates); err != nil {
				outs[ci].err = fmt.Errorf("bench: client %d final batch: %w", ci, err)
				return
			}
			outs[ci] = clientOut{
				hist:     h,
				ops:      int64(cfg.OpsPerClient),
				duration: dm.Now() - start,
				stats:    dm.Stats(),
			}
		}(ci)
	}
	wg.Wait()

	total := obs.NewHistogram()
	var ops, maxDur int64
	var stats dmsim.ClientStats
	for _, o := range outs {
		if o.err != nil {
			return Result{}, o.err
		}
		total.Merge(o.hist)
		ops += o.ops
		if o.duration > maxDur {
			maxDur = o.duration
		}
		stats.MaxInflight = max(stats.MaxInflight, o.stats.MaxInflight)
		stats.Trips += o.stats.Trips
		stats.BytesRead += o.stats.BytesRead
		stats.BytesWritten += o.stats.BytesWritten
		stats.Offloads += o.stats.Offloads
	}
	if maxDur == 0 {
		maxDur = 1
	}
	res := Result{
		System:         sys.Name(),
		Mix:            cfg.Mix.Name,
		Clients:        cfg.Clients,
		Ops:            ops,
		ThroughputMops: float64(ops) * 1e3 / float64(maxDur),
		P50Us:          float64(total.Quantile(0.50)) / 1e3,
		P99Us:          float64(total.Quantile(0.99)) / 1e3,
		TripsPerOp:     float64(stats.Trips) / float64(ops),
		ReadBytes:      float64(stats.BytesRead) / float64(ops),
		WriteBytes:     float64(stats.BytesWritten) / float64(ops),
		MaxInflight:    stats.MaxInflight,
		CacheBytes:     sys.CacheBytes(),
	}

	var err error
	if res.Shape, err = TreeShape(sys); err != nil {
		return Result{}, err
	}

	// NIC utilization: fraction of the run's virtual wall time the NICs
	// spent serving verbs (issued by anyone sharing the fabric, i.e.
	// this cohort).
	nicServed := fab.TotalNICStats().ServedNs - nicServedBefore
	res.NICUtilization = float64(nicServed) / float64(int64(fab.MNs())*maxDur)

	// MN compute plane: offload verbs per op and the bounded MN cores'
	// utilization over the same virtual wall time.
	mnAfter := fab.TotalMNCPUStats()
	res.OffloadsPerOp = float64(stats.Offloads) / float64(ops)
	res.MNFallbacksPerOp = float64(mnAfter.Fallbacks-mnBefore.Fallbacks) / float64(ops)
	res.MNUtilization = float64(mnAfter.BusyNs-mnBefore.BusyNs) /
		float64(int64(fab.MNs()*fab.MNCores())*maxDur)

	// Per-client write-combining counters (rdwcClient forwards to the
	// wrapped index client).
	for _, cl := range clients {
		if wr, ok := cl.(WriteCombineReporter); ok {
			cyc, comb := wr.WriteCombineStats()
			res.WCCycles += cyc
			res.WCCombinedKeys += comb
		}
	}

	if comb != nil && comb.Combiner() != nil {
		dlg, cw := comb.Combiner().Stats()
		res.DelegatedReads = dlg - dlgBefore
		res.CombinedWrites = cw - cwBefore
		res.Handoffs = comb.Combiner().Handoffs() - hoBefore
	}
	if cacheRep != nil {
		h, m := cacheRep.CacheHitMiss()
		if dh, dm := h-cacheHitsBefore, m-cacheMissesBefore; dh+dm > 0 {
			res.CacheHitRatio = float64(dh) / float64(dh+dm)
		}
	}
	if hotRep != nil {
		h, l := hotRep.HotspotHitMiss()
		if dh, dl := h-hotHitsBefore, l-hotLookupsBefore; dl > 0 {
			res.HotspotHitRatio = float64(dh) / float64(dl)
		}
	}
	if cfg.Obs != nil {
		snap := cfg.Obs.Sink().Registry().Snapshot()
		perOp := func(name string) float64 {
			//lint:allow obsnames every caller below passes a Name* schema constant
			return float64(snap.CounterDelta(snapBefore, name)) / float64(ops)
		}
		res.RetriesPerOp = perOp(obs.NameRetry)
		res.TornReadsPerOp = perOp(obs.NameTornRead)
		res.LockBackoffsPerOp = perOp(obs.NameLockBackoff)
		res.SiblingChasesPerOp = perOp(obs.NameSiblingChase)
		res.Splits = snap.CounterDelta(snapBefore, obs.NameSplit)
		res.Merges = snap.CounterDelta(snapBefore, obs.NameMerge)
		res.VerbTimeoutsPerOp = perOp(dmsim.NameVerbTimeout)
		res.VerbRetriesPerOp = perOp(dmsim.NameVerbRetry)
		res.LeaseExpired = snap.CounterDelta(snapBefore, obs.NameLeaseExpired)
		res.Recoveries = snap.CounterDelta(snapBefore, obs.NameRecovery)
		cfg.Obs.record(res)
	}
	return res, nil
}

// FormatObsResults renders the observability columns Run folds into each
// row: protocol-event rates per op, cache/hotspot hit ratios, NIC
// utilization and the read-delegation/write-combining totals.
func FormatObsResults(rows []Result) string {
	g := grid{cols: []col{
		{"system", "%-22s"}, {"mix", "%-5s"}, {"clients", "%7d"}, {"Mops", "%8.3f"},
		{"retry/op", "%9.4f"}, {"torn/op", "%9.4f"}, {"lockbk/op", "%9.4f"}, {"chase/op", "%9.4f"},
		{"cache%", "%7.1f"}, {"hot%", "%7.1f"}, {"nic%", "%6.1f"}, {"dlgReads", "%8d"}, {"combWr", "%8d"},
	}}
	for _, r := range rows {
		g.rows = append(g.rows, []any{r.System, r.Mix, r.Clients, r.ThroughputMops,
			r.RetriesPerOp, r.TornReadsPerOp, r.LockBackoffsPerOp, r.SiblingChasesPerOp,
			r.CacheHitRatio * 100, r.HotspotHitRatio * 100, r.NICUtilization * 100,
			r.DelegatedReads, r.CombinedWrites})
	}
	return g.String()
}

// FormatResults renders results as an aligned text table, one row per
// result — the "same rows the paper reports" output format.
func FormatResults(rows []Result) string {
	g := grid{cols: []col{
		{"system", "%-22s"}, {"mix", "%-5s"}, {"clients", "%8d"}, {"Mops", "%10.3f"},
		{"p50(us)", "%9.1f"}, {"p99(us)", "%9.1f"}, {"trips/op", "%8.2f"}, {"rdB/op", "%10.0f"}, {"cacheMB", "%10.2f"},
	}}
	for _, r := range rows {
		g.rows = append(g.rows, []any{r.System, r.Mix, r.Clients, r.ThroughputMops, r.P50Us, r.P99Us,
			r.TripsPerOp, r.ReadBytes, float64(r.CacheBytes) / 1e6})
	}
	return g.String()
}

// SortedLoadKeys returns the first n logical keys in sorted order
// (ROLEX's Build requires sorted input; the others don't care).
func SortedLoadKeys(n int) []uint64 {
	keys := ycsb.LoadKeys(uint64(n))
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
