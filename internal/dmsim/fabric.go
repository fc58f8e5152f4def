package dmsim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"chime/internal/hostmem"
	"chime/internal/obs"
)

// lockStripes is the size of a memory node's stripe-lock table.
const lockStripes = 256

// memoryNode is one node in the memory pool: a flat byte region, its
// NIC, a striped lock table for line atomicity, and a bump allocator
// that services chunk-allocation RPCs.
type memoryNode struct {
	// mem is pool.Bytes(): demand-zero memory off the Go heap, so a pool
	// costs the host what verbs touched, not what it can address
	// (DESIGN.md §5 "Where a pool's bytes come from"). nil after Close.
	mem   []byte
	pool  *hostmem.Region
	nic   *nic
	cpu   *mnCPU                  // bounded offload compute (mncpu.go)
	locks [lockStripes]sync.Mutex // striped by 64-byte line, see copyOut

	// Read fast path (copyOut): writers that have announced themselves
	// (beginWrite), and readers in flight, striped by client so that
	// concurrent readers share no cache line with each other or with
	// the writer count every one of them loads.
	writers atomic.Int64
	_       [56]byte
	readers obs.Striped

	allocMu  sync.Mutex
	allocOff uint64

	// Durability plane (persist.go). ps is nil with persistence off —
	// the hot path pays one nil check. dead marks a crash-stopped MN
	// (KillMN): every verb aimed at it fails with ErrMNDown until
	// RestartMN recovers it.
	ps   *pstore
	dead atomic.Bool
}

// casLock returns the stripe lock guarding the 64-byte line that holds
// the given offset. Real NICs serialize accesses to one cache line;
// striping by line index reproduces that without a global bottleneck.
func (m *memoryNode) casLock(off uint64) *sync.Mutex {
	return &m.locks[(off>>6)%lockStripes]
}

// The memory contract every verb keeps: a transfer never tears *within*
// a 64-byte-aligned line (the atomicity granularity of real RDMA data
// paths, PCIe TLPs), but a transfer spanning several lines can
// interleave with a concurrent writer at line boundaries — the torn
// reads that cache-line versioning exists to detect.
//
// Writers (copyIn, the atomics behind lockWord) keep it the direct way:
// each line is written under its stripe lock. Readers would pay a lock
// pair per line for the same guarantee, which is most of the host cost
// of a cold descent, so copyOut first tries to prove that no writer can
// overlap it at all:
//
//	reader: readers[s]++; if writers == 0 { copy }; readers[s]--
//	writer: writers++; wait until every readers[s] was seen at 0;
//	        write line by line under the stripe locks; writers--
//
// All of these are sequentially consistent atomics, so of a reader's
// increment-then-load and a writer's increment-then-load at least one
// sees the other (Dekker). A reader that saw no writer is therefore
// seen by every writer that announces before the reader's decrement,
// and that writer stores nothing until the decrement: memory does not
// change under the copy, and one copy returns what the per-line loop
// would have. A reader that does see a writer takes the per-line loop,
// so whenever a writer and a reader really overlap the lines interleave
// exactly as they always did — the fast path only ever removes
// interleavings (the reader wholly before the writer), never adds one.
// No clock is read or advanced here: virtual time cannot tell the two
// paths apart.

// copyOut copies remote memory into buf under the contract above.
// stripe picks the reader-count stripe; any per-client value will do.
//
//chime:noalloc
func (m *memoryNode) copyOut(stripe int32, off uint64, buf []byte) {
	// The first load keeps a reader off the stripes while a writer is
	// draining them, so a stream of readers cannot hold a writer up.
	if m.writers.Load() == 0 {
		m.readers.Add(stripe, 1)
		if m.writers.Load() == 0 {
			copy(buf, m.mem[off:off+uint64(len(buf))])
			m.readers.Add(stripe, -1)
			return
		}
		m.readers.Add(stripe, -1)
	}
	for len(buf) > 0 {
		lineEnd := (off | 63) + 1
		n := int(lineEnd - off)
		if n > len(buf) {
			n = len(buf)
		}
		lk := m.casLock(off)
		lk.Lock()
		copy(buf[:n], m.mem[off:off+uint64(n)])
		lk.Unlock()
		buf = buf[n:]
		off += uint64(n)
	}
}

// beginWrite announces a writer and waits out every fast-path reader
// that may not have seen the announcement; endWrite retires it. Stripe
// counts never go negative, so a zero sum means each stripe was seen
// at zero, and a reader arriving on a stripe after that sees the
// announcement. The wait yields: on one P the reader it waits for can
// only be a preempted goroutine.
//
//chime:noalloc
func (m *memoryNode) beginWrite() {
	m.writers.Add(1)
	for m.readers.Load() != 0 {
		runtime.Gosched()
	}
}

//chime:noalloc
func (m *memoryNode) endWrite() { m.writers.Add(-1) }

// copyIn is the write-side counterpart of copyOut: every line under its
// stripe lock, the whole transfer announced.
//
//chime:noalloc
func (m *memoryNode) copyIn(off uint64, data []byte) {
	m.beginWrite()
	for len(data) > 0 {
		lineEnd := (off | 63) + 1
		n := int(lineEnd - off)
		if n > len(data) {
			n = len(data)
		}
		lk := m.casLock(off)
		lk.Lock()
		copy(m.mem[off:off+uint64(n)], data[:n])
		lk.Unlock()
		data = data[n:]
		off += uint64(n)
	}
	m.endWrite()
}

// lockWord opens an atomic verb on the 8-byte word at off: it announces
// a writer, takes the stripe lock of every line the word touches, and
// returns the word. RDMA wants atomics 8-byte aligned, but ROLEX packs
// its leaves back to back at a size that is no multiple of 64, so its
// group lock words land anywhere in a line and some straddle two; a
// straddling word locked by its first line alone races copyIn on the
// second. Re-aligning ROLEX would change its remote layout and every
// number measured on it, so the verb covers both lines instead. The
// stripes are taken in ascending index order: the lock order ranks
// classes, not the stripes inside one, and a fixed order inside the
// class is what keeps two straddling atomics from deadlocking.
//
//chime:noalloc
func (m *memoryNode) lockWord(off uint64) []byte {
	m.beginWrite()
	stripes, n := wordStripes(off)
	for _, s := range stripes[:n] {
		m.locks[s].Lock()
	}
	return m.mem[off : off+8]
}

// unlockWord closes the atomic verb lockWord opened on the same offset.
//
//chime:noalloc
func (m *memoryNode) unlockWord(off uint64) {
	stripes, n := wordStripes(off)
	for _, s := range stripes[:n] {
		m.locks[s].Unlock()
	}
	m.endWrite()
}

// wordStripes returns, ascending, the stripe indices of the n (1 or 2)
// lines the 8-byte word at off touches.
//
//chime:noalloc
func wordStripes(off uint64) (stripes [2]uint64, n int) {
	a, b := (off>>6)%lockStripes, ((off+7)>>6)%lockStripes
	switch {
	case a == b:
		return [2]uint64{a}, 1
	case a < b:
		return [2]uint64{a, b}, 2
	default: // the word's second line wraps the stripe table
		return [2]uint64{b, a}, 2
	}
}

// Fabric is the simulated disaggregated-memory pool: a set of memory
// nodes reachable from any number of clients. Create one with NewFabric
// and hand each simulated client its own *Client via NewClient.
type Fabric struct {
	cfg  Config
	mns  []*memoryNode
	loop *evLoop // cohort scheduler (eventloop.go)

	// shards is the per-MN NIC shard count (== effective lanes).
	shards int32

	clientSeq atomic.Int64

	// Fault plane (fault.go). inj is read on every verb; set it only
	// while no verbs are in flight (SetFaultInjector). The counters are
	// striped (per-writer cache lines) so heavily faulted fleets on the
	// sharded NIC path don't serialize on four shared hot words.
	inj   FaultInjector
	ftObs faultObs

	ftTimeouts obs.Striped
	ftRetries  obs.Striped
	ftCrashes  obs.Striped
	ftFailures obs.Striped

	// Durability plane (persist.go): recovered metadata and the per-MN
	// restore summaries from construction-time warm start.
	pmetaMu       sync.Mutex
	pmeta         map[string]string
	restored      []RecoveryStats
	restoreHostNs int64

	// MN-side offload programs (offload.go). progMu guards registration
	// only; lookups on the verb path read the slice without it because
	// registration is required to happen-before offload traffic
	// (bootstrap precedes client goroutines).
	progMu sync.Mutex
	progs  []MNProgram
}

// NewFabric builds a fabric from the configuration.
func NewFabric(cfg Config) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Fabric{cfg: cfg, shards: int32(cfg.lanes()), loop: newEvLoop(cfg.quantumNs(), cfg.lanes())}
	for i := 0; i < cfg.MNs; i++ {
		pool := hostmem.Zeroed(cfg.MNSize)
		f.mns = append(f.mns, &memoryNode{
			mem:  pool.Bytes(),
			pool: pool,
			nic:  newNIC(cfg),
			cpu:  newMNCPU(cfg),
			// Offset 0 is the nil address; start allocating at 64.
			allocOff: 64,
		})
	}
	if cfg.Persist.Enabled() {
		if err := f.openPersist(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// Close releases every MN's pool now rather than when the collector
// gets to it. The fabric must be quiesced; afterwards every verb fails
// the ordinary bounds check (there are no bytes left to address).
// Calling it again is a no-op. It does not close the durability plane:
// ClosePersist is the clean shutdown, dropping the stores is the crash.
func (f *Fabric) Close() {
	for _, mn := range f.mns {
		mn.mem = nil
		mn.pool.Release()
	}
}

// MustNewFabric is NewFabric that panics on a bad configuration. Useful
// in tests and examples where the config is a literal.
func MustNewFabric(cfg Config) *Fabric {
	f, err := NewFabric(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// Config returns the fabric's configuration.
func (f *Fabric) Config() Config { return f.cfg }

// MNs returns the number of memory nodes.
func (f *Fabric) MNs() int { return len(f.mns) }

// SetObserver attaches an observability sink to every NIC: per-verb
// service histograms and queue-wait histograms land in the sink's
// registry, and (when the sink traces) each NIC emits a rate-limited
// backlog/queue-depth counter timeline. Passing nil detaches nothing —
// call it once, before the traffic of interest, from a single
// goroutine. Observation never advances virtual clocks: timings are
// identical with or without a sink.
func (f *Fabric) SetObserver(s *obs.Sink) {
	if s == nil {
		return
	}
	for i, m := range f.mns {
		m.nic.setObserver(i, s)
		m.cpu.setObserver(s)
	}
	r := s.Registry()
	f.ftObs = faultObs{
		timeouts: r.Counter(NameVerbTimeout),
		retries:  r.Counter(NameVerbRetry),
		delay:    r.Histogram(NameFaultDelay),
	}
}

func (f *Fabric) node(a GAddr) (*memoryNode, error) {
	if int(a.MN) >= len(f.mns) {
		return nil, fmt.Errorf("dmsim: address %v references MN %d of %d", a, a.MN, len(f.mns))
	}
	return f.mns[a.MN], nil
}

// checkRange validates that [a, a+n) lies inside the MN region.
//
//chime:coldalloc allocates only when building the out-of-bounds error
func (f *Fabric) checkRange(a GAddr, n int) (*memoryNode, error) {
	mn, err := f.node(a)
	if err != nil {
		return nil, err
	}
	if n < 0 || a.Off+uint64(n) > uint64(len(mn.mem)) {
		return nil, fmt.Errorf("dmsim: access [%v, +%d) out of bounds (MN size %d)", a, n, len(mn.mem))
	}
	return mn, nil
}

// Frontier returns the fabric's current virtual time: the latest point
// any NIC or MN CPU is busy until. New clients start their clocks here.
func (f *Fabric) Frontier() int64 {
	var frontier int64
	for _, m := range f.mns {
		if fr := m.nic.frontier(); fr > frontier {
			frontier = fr
		}
		if fr := m.cpu.frontier(); fr > frontier {
			frontier = fr
		}
	}
	return frontier
}

// NICStatsFor returns a snapshot of one MN's NIC counters.
func (f *Fabric) NICStatsFor(mn int) NICStats {
	return f.mns[mn].nic.stats()
}

// TotalNICStats sums NIC counters across all MNs.
func (f *Fabric) TotalNICStats() NICStats {
	var t NICStats
	for _, m := range f.mns {
		s := m.nic.stats()
		t.Verbs += s.Verbs
		t.BytesIn += s.BytesIn
		t.BytesOut += s.BytesOut
		t.QueuedNs += s.QueuedNs
		t.ServedNs += s.ServedNs
	}
	return t
}

// Peek copies remote bytes without charging network cost. It exists for
// tests and debugging only — index code must use Client verbs.
func (f *Fabric) Peek(a GAddr, buf []byte) error {
	mn, err := f.checkRange(a, len(buf))
	if err != nil {
		return err
	}
	copy(buf, mn.mem[a.Off:])
	runtime.KeepAlive(mn) // mn.pool's finalizer unmaps what the copy reads
	return nil
}

// Poke writes remote bytes without charging network cost. Tests only.
func (f *Fabric) Poke(a GAddr, data []byte) error {
	mn, err := f.checkRange(a, len(data))
	if err != nil {
		return err
	}
	copy(mn.mem[a.Off:], data)
	// Free mutations still mutate durable state; log them (at zero
	// virtual cost, like the rest of Poke).
	if mn.ps != nil {
		mn.ps.logWrite(a.Off, data)
	}
	return nil
}
