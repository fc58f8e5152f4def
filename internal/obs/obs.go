// Package obs is the unified observability layer for the index stack:
// cheap atomic counters and gauges, log-bucketed histograms over virtual
// nanoseconds, and per-operation trace spans stamped with the dmsim
// virtual clock.
//
// Everything is nil-safe: a nil *Sink, *Registry, *Counter, *Gauge,
// *Histogram, *Tracer or *Span turns every method into a no-op, so
// instrumented hot paths cost exactly one branch on a nil pointer when
// no observer is configured. Layers resolve their instruments once at
// construction (see ResolveIndex) and never touch a map on the hot
// path.
//
// None of the instruments advance any virtual clock: attaching a sink
// changes what is recorded, never what is simulated, so virtual-time
// results are bit-identical with and without observation.
package obs

import "sync/atomic"

// Counter is a nil-safe atomic event counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. No-op on a nil counter.
//
//chime:noalloc
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. No-op on a nil counter.
//
//chime:noalloc
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current count (0 for nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge tracks a current level and the maximum it has reached — e.g.
// posted-verb inflight depth.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Add moves the level by delta, updating the running maximum.
//
//chime:noalloc
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	v := g.v.Add(delta)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Set forces the level, updating the running maximum.
//
//chime:noalloc
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Load returns the current level (0 for nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the maximum level observed (0 for nil).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// Sink bundles the observation channels: a Registry of aggregate
// instruments, an optional Tracer of timestamped events, and an
// optional per-op FlightRecorder (flight.go). A nil *Sink disables all
// of them.
type Sink struct {
	reg *Registry
	tr  *Tracer
	fr  *FlightRecorder
}

// NewSink returns a sink with a fresh registry and, when trace is true,
// a tracer.
func NewSink(trace bool) *Sink {
	s := &Sink{reg: NewRegistry()}
	if trace {
		s.tr = NewTracer()
	}
	return s
}

// Registry returns the sink's registry (nil for a nil sink).
func (s *Sink) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Tracer returns the sink's tracer (nil for a nil sink or an untraced
// sink).
func (s *Sink) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tr
}

// SetFlightRecorder attaches a per-op flight recorder to the sink.
// Attach before wiring the sink into fabrics and compute nodes
// (SetObserver resolves and caches the recorder pointer); a sink
// without one records no flights.
func (s *Sink) SetFlightRecorder(fr *FlightRecorder) {
	if s != nil {
		s.fr = fr
	}
}

// FlightRecorder returns the sink's flight recorder (nil for a nil sink
// or a sink without one).
func (s *Sink) FlightRecorder() *FlightRecorder {
	if s == nil {
		return nil
	}
	return s.fr
}

// IndexInstruments is the uniform per-index event set every index
// client resolves from a sink at construction. The zero value (all nil)
// is the disabled state; every field is individually nil-safe.
//
// Counter semantics, shared across CHIME, Sherman, SMART and ROLEX so
// the bench harness can fold them into any experiment row:
//
//   - Retries: operation-level restarts (a traversal or leaf protocol
//     observed a structural change and started over).
//   - TornReads: version-check failures on a fetched image (concurrent
//     writer caught mid-flight; the read is retried).
//   - LockBackoffs: failed remote lock CASes (contention backoff).
//   - SiblingChases: B-link sibling hops after half-splits (for ROLEX:
//     overflow-chain hops).
//   - Splits / Merges: structural modifications performed.
//   - RunSplits: the splits among Splits that were taken as an ascending
//     run's, past the median (nodelayout.SplitPoint).
//   - HotspotHits / HotspotMisses: speculative single-entry reads that
//     did / did not resolve the key (CHIME only).
//   - WCCycles / WCCombined: leaf write cycles executed by the batch
//     write pipeline and keys absorbed into an already-open cycle.
//   - LeaseExpired: lock words found held past their lease expiry
//     (a crashed holder detected).
//   - Recoveries: stale locks successfully stolen and recovered from —
//     the node is repaired (CHIME leaves recompute the piggybacked
//     metadata) or re-read and re-validated under the stolen lock.
type IndexInstruments struct {
	Tracer *Tracer

	// Flight, when non-nil, is the per-op flight recorder the index's
	// clients register their Flights with (see flight.go).
	Flight *FlightRecorder

	Retries       *Counter
	TornReads     *Counter
	LockBackoffs  *Counter
	SiblingChases *Counter
	Splits        *Counter
	RunSplits     *Counter
	Merges        *Counter
	HotspotHits   *Counter
	HotspotMisses *Counter
	WCCycles      *Counter
	WCCombined    *Counter
	LeaseExpired  *Counter
	Recoveries    *Counter
}

// Registry names of the index instrument set (see IndexInstruments).
const (
	NameRetry        = "idx.retry"
	NameTornRead     = "idx.torn_read"
	NameLockBackoff  = "idx.lock_backoff"
	NameSiblingChase = "idx.sibling_chase"
	NameSplit        = "idx.split"
	NameRunSplit     = "idx.split.run"
	NameMerge        = "idx.merge"
	NameHotspotHit   = "idx.hotspot.hit"
	NameHotspotMiss  = "idx.hotspot.miss"
	NameWCCycle      = "idx.wc.cycle"
	NameWCCombined   = "idx.wc.combined"
	NameLeaseExpired = "idx.lease_expired"
	NameRecovery     = "idx.recovery"
)

// ResolveIndex resolves the uniform index instrument set from a sink.
// A nil sink yields the zero (disabled) set.
func ResolveIndex(s *Sink) IndexInstruments {
	if s == nil {
		return IndexInstruments{}
	}
	r := s.Registry()
	return IndexInstruments{
		Tracer:        s.Tracer(),
		Flight:        s.FlightRecorder(),
		Retries:       r.Counter(NameRetry),
		TornReads:     r.Counter(NameTornRead),
		LockBackoffs:  r.Counter(NameLockBackoff),
		SiblingChases: r.Counter(NameSiblingChase),
		Splits:        r.Counter(NameSplit),
		RunSplits:     r.Counter(NameRunSplit),
		Merges:        r.Counter(NameMerge),
		HotspotHits:   r.Counter(NameHotspotHit),
		HotspotMisses: r.Counter(NameHotspotMiss),
		WCCycles:      r.Counter(NameWCCycle),
		WCCombined:    r.Counter(NameWCCombined),
		LeaseExpired:  r.Counter(NameLeaseExpired),
		Recoveries:    r.Counter(NameRecovery),
	}
}
