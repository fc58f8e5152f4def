package bench

import (
	"fmt"
	"sync"

	"chime/internal/core"
	"chime/internal/dmsim"
	"chime/internal/offroute"
	"chime/internal/rdwc"
	"chime/internal/rolex"
	"chime/internal/sherman"
	"chime/internal/smartidx"
	"chime/internal/ycsb"
)

// rdwcClient wraps an index client with the per-CN read-delegation /
// write-combining layer the paper's evaluation applies to every system
// (§5.1). Search and Update on the same key coalesce; structural
// operations pass through.
type rdwcClient struct {
	Client
	comb *rdwc.Combiner
}

func (r rdwcClient) Search(key uint64) ([]byte, error) {
	return r.comb.Read(r.DM(), key, func() ([]byte, error) {
		return r.Client.Search(key)
	})
}

func (r rdwcClient) Update(key uint64, value []byte) error {
	return r.comb.Write(r.DM(), key, value, func(v []byte) error {
		return r.Client.Update(key, v)
	})
}

// WriteCombineStats forwards to the wrapped client (the embedded Client
// interface would otherwise hide the optional method from the harness).
func (r rdwcClient) WriteCombineStats() (cycles, combinedKeys int64) {
	if wr, ok := r.Client.(WriteCombineReporter); ok {
		return wr.WriteCombineStats()
	}
	return 0, 0
}

// withRDWC wraps a client factory when the config enables combining.
func withRDWC(cfg SystemConfig, comb *rdwc.Combiner, inner func() Client) func() Client {
	if cfg.DisableRDWC {
		return inner
	}
	return func() Client { return rdwcClient{Client: inner(), comb: comb} }
}

// index is what the four index clients have in common. They share one
// KV type and report absent keys with ErrNotFound itself (offroute), so
// one adapter serves them all.
type index interface {
	Search(key uint64) ([]byte, error)
	Insert(key uint64, value []byte) error
	Update(key uint64, value []byte) error
	Delete(key uint64) error
	ScanTo(buf *offroute.ScanBuf, start uint64, count int) error
	DM() *dmsim.Client
}

// adapter puts an index client behind Client: only Scan needs reshaping.
// Client.Scan keeps the count alone, so every scan of a client fills the
// one buffer.
type adapter struct {
	index
	scan *offroute.ScanBuf
}

func adapt(cl index) adapter { return adapter{cl, new(offroute.ScanBuf)} }

func (a adapter) Scan(start uint64, count int) (int, error) {
	if err := a.ScanTo(a.scan, start, count); err != nil {
		return 0, err
	}
	return len(a.scan.Out), nil
}

// batcher is the posted-verb batch surface of the tree indexes.
type batcher interface {
	BatchSearcher
	BatchWriter
	WriteCombineReporter
}

// batchAdapter is adapter for an index client that also batches.
type batchAdapter struct {
	adapter
	batcher
}

func adaptBatching[C interface {
	index
	batcher
}](cl C) Client {
	return batchAdapter{adapt(cl), cl}
}

func loadClients(cfg SystemConfig) int {
	if cfg.LoadClients > 0 {
		return cfg.LoadClients
	}
	return 8
}

// parallelLoad inserts the load keys through newClient handles.
func parallelLoad(cfg SystemConfig, newClient func() Client) error {
	n := len(cfg.LoadKeys)
	if n == 0 {
		return nil
	}
	workers := loadClients(cfg)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	chunk := (n + workers - 1) / workers
	// Create loader clients up front so the cohort shares one virtual
	// epoch (see bench.Run).
	loaders := make([]Client, workers)
	for w := range loaders {
		loaders[w] = newClient()
		loaders[w].DM().JoinCohort()
	}
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(cl Client, keys []uint64) {
			defer wg.Done()
			defer cl.DM().LeaveCohort()
			cl.DM().Sync() // first park: scheduler order from here on
			value := make([]byte, cfg.ValueSize)
			for _, k := range keys {
				if err := cl.Insert(k, value); err != nil {
					errs <- err
					return
				}
			}
		}(loaders[w], cfg.LoadKeys[lo:hi])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	return nil
}

// ---- CHIME ----

type chimeSystem struct {
	comb *rdwc.Combiner
	newC func() Client
	ix   *core.Index
	cn   *core.ComputeNode
}

func (s *chimeSystem) Name() string             { return "CHIME" }
func (s *chimeSystem) NewClient() Client        { return s.newC() }
func (s *chimeSystem) Combiner() *rdwc.Combiner { return s.comb }
func (s *chimeSystem) CacheHitMiss() (hits, misses int64) {
	cs := s.cn.CacheStats()
	return cs.Hits, cs.Misses
}
func (s *chimeSystem) HotspotHitMiss() (hits, lookups int64) {
	hs := s.cn.HotspotStats()
	return hs.Hits, hs.Lookups
}
func (s *chimeSystem) Census() ([]int, []int, error) { return s.ix.Census() }
func (s *chimeSystem) CacheBytes() int64 {
	cs := s.cn.CacheStats()
	hs := s.cn.HotspotStats()
	return cs.UsedBytes + int64(hs.Entries)*16
}

// chimeOptions derives the CHIME tree options one SystemConfig implies;
// shared by cold bootstrap and warm-start attach (which must agree, as
// layouts are derived from the options).
func chimeOptions(cfg SystemConfig) core.Options {
	opts := core.DefaultOptions()
	if cfg.SpanSize > 0 {
		opts.SpanSize = cfg.SpanSize
	}
	if cfg.Neighborhood > 0 {
		opts.Neighborhood = cfg.Neighborhood
	}
	opts.ValueSize = cfg.ValueSize
	opts.Indirect = cfg.Indirect
	opts.PiggybackVacancy = !cfg.DisablePiggyback
	opts.ReplicateMeta = !cfg.DisableReplication
	opts.SpeculativeRead = !cfg.DisableSpeculation
	opts.LeaseLocks = cfg.LeaseLocks
	opts.LeaseNs = cfg.LeaseNs
	opts.Offload = cfg.Offload
	return opts
}

// NewCHIME builds and loads a CHIME tree per the config.
func NewCHIME(cfg SystemConfig) (System, error) {
	ix, err := core.Bootstrap(cfg.Fabric, chimeOptions(cfg))
	if err != nil {
		return nil, err
	}
	sys := &chimeSystem{ix: ix, cn: ix.NewComputeNode(cfg.CacheBytes, cfg.HotspotBytes), comb: rdwc.NewCombiner()}
	sys.cn.SetObserver(cfg.Obs.Sink())
	sys.newC = withRDWC(cfg, sys.comb, func() Client { return adaptBatching(sys.cn.NewClient()) })
	if err := parallelLoad(cfg, sys.NewClient); err != nil {
		return nil, fmt.Errorf("chime load: %w", err)
	}
	return sys, nil
}

// ---- Sherman ----

type shermanSystem struct {
	comb *rdwc.Combiner
	newC func() Client
	ix   *sherman.Index
	cn   *sherman.ComputeNode
}

func (s *shermanSystem) Name() string             { return "Sherman" }
func (s *shermanSystem) NewClient() Client        { return s.newC() }
func (s *shermanSystem) Combiner() *rdwc.Combiner { return s.comb }
func (s *shermanSystem) CacheHitMiss() (hits, misses int64) {
	h, m, _, _ := s.cn.CacheStats()
	return h, m
}
func (s *shermanSystem) Census() ([]int, []int, error) { return s.ix.Census() }
func (s *shermanSystem) CacheBytes() int64 {
	_, _, _, used := s.cn.CacheStats()
	return used
}

// shermanOptions derives the Sherman tree options one SystemConfig
// implies; shared by cold bootstrap and warm-start attach.
func shermanOptions(cfg SystemConfig) sherman.Options {
	opts := sherman.DefaultOptions()
	if cfg.SpanSize > 0 {
		opts.SpanSize = cfg.SpanSize
	}
	opts.ValueSize = cfg.ValueSize
	opts.Indirect = cfg.Indirect
	opts.LeaseLocks = cfg.LeaseLocks
	opts.LeaseNs = cfg.LeaseNs
	opts.Offload = cfg.Offload
	return opts
}

// NewSherman builds and loads a Sherman tree.
func NewSherman(cfg SystemConfig) (System, error) {
	ix, err := sherman.Bootstrap(cfg.Fabric, shermanOptions(cfg))
	if err != nil {
		return nil, err
	}
	sys := &shermanSystem{ix: ix, cn: ix.NewComputeNode(cfg.CacheBytes), comb: rdwc.NewCombiner()}
	sys.cn.SetObserver(cfg.Obs.Sink())
	sys.newC = withRDWC(cfg, sys.comb, func() Client { return adaptBatching(sys.cn.NewClient()) })
	if err := parallelLoad(cfg, sys.NewClient); err != nil {
		return nil, fmt.Errorf("sherman load: %w", err)
	}
	return sys, nil
}

// ---- SMART ----

type smartSystem struct {
	comb *rdwc.Combiner
	newC func() Client
	ix   *smartidx.Index
	cn   *smartidx.ComputeNode
}

func (s *smartSystem) Name() string             { return "SMART" }
func (s *smartSystem) NewClient() Client        { return s.newC() }
func (s *smartSystem) Combiner() *rdwc.Combiner { return s.comb }
func (s *smartSystem) CacheHitMiss() (hits, misses int64) {
	h, m, _, _ := s.cn.CacheStats()
	return h, m
}
func (s *smartSystem) CacheBytes() int64 {
	_, _, _, used := s.cn.CacheStats()
	return used
}

// NewSMART builds and loads a SMART tree. SMART ignores span/indirect
// options: leaves are discrete KV blocks already.
func NewSMART(cfg SystemConfig) (System, error) {
	opts := smartidx.DefaultOptions()
	opts.ValueSize = cfg.ValueSize
	opts.LeaseLocks = cfg.LeaseLocks
	opts.LeaseNs = cfg.LeaseNs
	opts.Offload = cfg.Offload
	ix, err := smartidx.Bootstrap(cfg.Fabric, opts)
	if err != nil {
		return nil, err
	}
	sys := &smartSystem{ix: ix, cn: ix.NewComputeNode(cfg.CacheBytes), comb: rdwc.NewCombiner()}
	sys.cn.SetObserver(cfg.Obs.Sink())
	sys.newC = withRDWC(cfg, sys.comb, func() Client { return adapt(sys.cn.NewClient()) })
	if err := parallelLoad(cfg, sys.NewClient); err != nil {
		return nil, fmt.Errorf("smart load: %w", err)
	}
	return sys, nil
}

// ---- ROLEX ----

type rolexSystem struct {
	comb *rdwc.Combiner
	newC func() Client
	ix   *rolex.Index
	cn   *rolex.ComputeNode
}

func (s *rolexSystem) Name() string             { return "ROLEX" }
func (s *rolexSystem) NewClient() Client        { return s.newC() }
func (s *rolexSystem) Combiner() *rdwc.Combiner { return s.comb }
func (s *rolexSystem) CacheBytes() int64        { return s.ix.CacheBytes() }

// NewROLEX builds a ROLEX index, pre-training models over the load keys
// (the CHIME paper's setup; ROLEX is excluded from YCSB LOAD for the
// same reason the paper excludes it).
func NewROLEX(cfg SystemConfig) (System, error) {
	opts := rolex.DefaultOptions()
	if cfg.SpanSize > 0 {
		opts.SpanSize = cfg.SpanSize
		opts.Epsilon = cfg.SpanSize
	}
	opts.ValueSize = cfg.ValueSize
	opts.Indirect = cfg.Indirect
	opts.LeaseLocks = cfg.LeaseLocks
	opts.LeaseNs = cfg.LeaseNs
	opts.Offload = cfg.Offload
	if len(cfg.LoadKeys) == 0 {
		return nil, fmt.Errorf("rolex: needs load keys for pre-training")
	}
	ix, err := rolex.Build(cfg.Fabric, opts, cfg.LoadKeys, nil)
	if err != nil {
		return nil, err
	}
	sys := &rolexSystem{ix: ix, cn: ix.NewComputeNode(), comb: rdwc.NewCombiner()}
	sys.cn.SetObserver(cfg.Obs.Sink())
	sys.newC = withRDWC(cfg, sys.comb, func() Client { return adapt(sys.cn.NewClient()) })
	return sys, nil
}

// Factories lists the head-to-head systems in the paper's order.
var Factories = map[string]Factory{
	"CHIME":   NewCHIME,
	"Sherman": NewSherman,
	"SMART":   NewSMART,
	"ROLEX":   NewROLEX,
}

// testbedConfig is the fabric configuration every experiment starts
// from: the dmsim defaults with the given MN count and per-MN memory.
// Allocation chunks are shrunk to 1 MB so client-count sweeps into the
// hundreds fit a laptop-sized MN (chunk size only changes allocation-RPC
// frequency; see dmsim.Config.ChunkBytes).
func testbedConfig(mns, mnSize int) dmsim.Config {
	cfg := dmsim.DefaultConfig()
	cfg.MNs = mns
	cfg.MNSize = mnSize
	cfg.ChunkBytes = 1 << 20
	return cfg
}

// DefaultFabric builds the standard testbed fabric.
func DefaultFabric(mns int, mnSize int) *dmsim.Fabric {
	return dmsim.MustNewFabric(testbedConfig(mns, mnSize))
}

// NewKeySpaceFor returns the shared keyspace seeded with the load size.
func NewKeySpaceFor(loadKeys []uint64) *ycsb.KeySpace {
	return ycsb.NewKeySpace(uint64(len(loadKeys)))
}
