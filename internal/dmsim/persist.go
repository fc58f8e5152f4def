package dmsim

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"chime/internal/folio"
)

// Per-MN persistence backend. With Config.Persist.Dir set, every
// mutation of MN memory — one-sided WRITEs, atomics, offloaded program
// writes, allocator watermarks — is appended to that MN's folio
// write-behind log, and SnapshotPersist compacts the log into a fresh
// snapshot. The log device is modeled as NVM: an append is durable the
// moment the verb that caused it completes, so an MN crash (KillMN)
// loses nothing a client was ever acked for; RestartMN replays
// snapshot + log and resumes.
//
// Virtual-time accounting. Real durability costs time, and the
// simulator charges it deterministically rather than measuring host
// I/O (which would destroy bit-identical same-seed runs):
//
//   - Each logged mutation charges appendNs(bytes) = LogNs +
//     bytes/LogBps onto the acking verb's completion time, after NIC
//     service. The NIC itself stays free — write-behind logging is MN-
//     local — so only the acked client waits, exactly the write-behind
//     shape.
//   - RestartMN computes a replay cost from the recovered page/record
//     counts and pushes the MN's NIC and CPU busy horizons past it, so
//     post-restart verbs queue behind recovery through the existing
//     single-server recurrences. No wall clock is read anywhere.
//
// With persistence off (the zero Config.Persist), no store exists, the
// hot path costs one nil check, and virtual results are bit-identical
// to a fabric built before this plane existed — pinned by
// TestPersistOffMeansOff in internal/bench.
//
// Concurrency contract: the logging hooks are safe under concurrent
// clients (the store serializes appends, capturing the fabric's
// coherence order: appends happen right after the data movement they
// record, so lock-serialized updates replay in acked order). The
// lifecycle calls — SnapshotPersist, KillMN, RestartMN, ClosePersist —
// require a quiesced fabric (no verbs in flight), like SetObserver.

// PersistConfig configures the optional per-MN durability backend.
// The zero value disables persistence entirely.
type PersistConfig struct {
	// Dir is the directory holding one <dir>/mn<i>.folio file per
	// memory node. Empty disables persistence. If the files already
	// exist, NewFabric restores MN memory from them (warm start /
	// crash recovery); otherwise fresh stores are created.
	Dir string

	// PageSize is the snapshot page granularity (folio.Options). Zero
	// selects 4096.
	PageSize int

	// AutoCompactEvery compacts an MN's log at the next safe point
	// (SnapshotPersist call) once this many records accumulated. Zero
	// disables auto-compaction.
	AutoCompactEvery int

	// LogNs is the per-record NVM append latency charged to the acking
	// verb, before the per-byte cost. Zero selects 300 ns.
	LogNs int64

	// LogBps is the NVM log stream bandwidth (bytes/second) for the
	// per-byte part of the append charge. Zero selects 2 GB/s.
	LogBps float64

	// ReplayNs is the per-record (and per-page) replay cost charged to
	// virtual time by RestartMN. Zero selects 100 ns.
	ReplayNs int64

	// ReplayBps is the replay streaming bandwidth for recovered bytes.
	// Zero selects 4 GB/s.
	ReplayBps float64
}

// Enabled reports whether the configuration turns persistence on.
func (p PersistConfig) Enabled() bool { return p.Dir != "" }

func (p PersistConfig) withDefaults() PersistConfig {
	if p.PageSize <= 0 {
		p.PageSize = 4096
	}
	if p.LogNs <= 0 {
		p.LogNs = 300
	}
	if p.LogBps <= 0 {
		p.LogBps = 2e9
	}
	if p.ReplayNs <= 0 {
		p.ReplayNs = 100
	}
	if p.ReplayBps <= 0 {
		p.ReplayBps = 4e9
	}
	return p
}

func (p PersistConfig) validate() error {
	if p.PageSize < 0 || p.AutoCompactEvery < 0 || p.LogNs < 0 || p.ReplayNs < 0 {
		return fmt.Errorf("dmsim: negative Persist parameter")
	}
	if p.LogBps < 0 || p.ReplayBps < 0 {
		return fmt.Errorf("dmsim: negative Persist bandwidth")
	}
	return nil
}

// appendNs is the deterministic virtual cost of logging one n-byte
// mutation: fixed NVM latency plus streaming.
func (p PersistConfig) appendNs(n int) int64 {
	return p.LogNs + int64(float64(n)*1e9/p.LogBps)
}

// pstore binds one MN's folio store to the cost model.
type pstore struct {
	st      *folio.Store
	cfg     PersistConfig
	records atomic.Int64
	bytes   atomic.Int64
}

// logWrite appends one mutation and returns the virtual-ns charge. A
// host I/O failure here (disk full, yanked volume) cannot be mapped to
// a simulated fault — the durable record of an acked write would be
// silently missing — so it panics.
//
//chime:coldalloc durable logging serializes each record to the folio store
func (p *pstore) logWrite(off uint64, data []byte) int64 {
	if err := p.st.AppendWrite(off, data); err != nil {
		panic(fmt.Sprintf("dmsim: persist log append failed: %v", err))
	}
	p.records.Add(1)
	p.bytes.Add(int64(len(data)))
	return p.cfg.appendNs(len(data))
}

// logWord is logWrite for an 8-byte atomic's post-image.
func (p *pstore) logWord(off uint64, word uint64) int64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], word)
	return p.logWrite(off, buf[:])
}

// logAlloc records the allocator watermark (recovery takes the max).
func (p *pstore) logAlloc(off uint64) int64 {
	if err := p.st.NoteAlloc(off); err != nil {
		panic(fmt.Sprintf("dmsim: persist alloc append failed: %v", err))
	}
	p.records.Add(1)
	return p.cfg.appendNs(8)
}

// PersistStats aggregate the fabric's durability counters.
type PersistStats struct {
	Records int64 // mutations logged across all MNs
	Bytes   int64 // payload bytes logged
}

// RecoveryStats describe one MN restore (RestartMN, or per-MN at
// NewFabric when the persist dir already held files).
type RecoveryStats struct {
	MN            int
	Pages         int   // snapshot pages restored
	PageBytes     int64 // their payload bytes
	Records       int   // log records replayed
	RecordBytes   int64 // write payload bytes replayed
	WasDirty      bool  // previous session did not close cleanly
	TruncatedTail bool  // a torn final record was discarded
	RecoverNs     int64 // virtual time charged for the replay
}

// recoverNs prices a replay with the configured cost model.
func (p PersistConfig) recoverNs(r *folio.Recovery) int64 {
	units := int64(r.Pages + r.Records)
	bytes := r.PageBytes + r.RecordBytes
	return units*p.ReplayNs + int64(float64(bytes)*1e9/p.ReplayBps)
}

func persistPath(dir string, mn int) string {
	return folio.Join(dir, fmt.Sprintf("mn%d.folio", mn))
}

// openPersist attaches stores to every MN at fabric construction,
// restoring memory from any existing files.
func (f *Fabric) openPersist() error {
	cfg := f.cfg.Persist.withDefaults()
	fopts := folio.Options{PageSize: cfg.PageSize, AutoCompactEvery: cfg.AutoCompactEvery}
	f.pmeta = map[string]string{}
	// Host wall time of the restore work alone (file decode + page
	// materialization), for the warm-start bench: fabric construction
	// around it is common to cold and warm paths and must not pollute
	// the comparison.
	start := time.Now() //lint:allow virtualclock host-side restore cost is a wall-clock figure by design
	defer func() {
		f.restoreHostNs = time.Since(start).Nanoseconds() //lint:allow virtualclock host-side restore cost is a wall-clock figure by design
	}()
	for i, mn := range f.mns {
		path := persistPath(cfg.Dir, i)
		if !folio.Exists(path) {
			st, err := folio.Create(path, fopts)
			if err != nil {
				return fmt.Errorf("dmsim: creating persist store: %w", err)
			}
			mn.ps = &pstore{st: st, cfg: cfg}
			continue
		}
		st, rec, err := folio.Open(path, fopts)
		if err != nil {
			return fmt.Errorf("dmsim: restoring MN %d: %w", i, err)
		}
		if err := rec.Materialize(mn.mem); err != nil {
			st.Close()
			return fmt.Errorf("dmsim: restoring MN %d: %w", i, err)
		}
		if rec.AllocOff > mn.allocOff {
			mn.allocOff = rec.AllocOff
		}
		for k, v := range rec.Meta {
			f.pmeta[k] = v
		}
		mn.ps = &pstore{st: st, cfg: cfg}
		f.restored = append(f.restored, RecoveryStats{
			MN: i, Pages: rec.Pages, PageBytes: rec.PageBytes,
			Records: rec.Records, RecordBytes: rec.RecordBytes,
			WasDirty: rec.WasDirty, TruncatedTail: rec.TruncatedTail,
			RecoverNs: cfg.recoverNs(rec),
		})
	}
	return nil
}

// PersistEnabled reports whether this fabric carries the durability
// backend.
func (f *Fabric) PersistEnabled() bool { return len(f.mns) > 0 && f.mns[0].ps != nil }

// PersistStats sums the durability counters across MNs.
func (f *Fabric) PersistStats() PersistStats {
	var t PersistStats
	for _, mn := range f.mns {
		if mn.ps != nil {
			t.Records += mn.ps.records.Load()
			t.Bytes += mn.ps.bytes.Load()
		}
	}
	return t
}

// RestoreStats returns the per-MN recovery summaries from fabric
// construction — empty for a cold (or persistence-off) fabric,
// populated when NewFabric warm-started from existing folio files.
func (f *Fabric) RestoreStats() []RecoveryStats { return f.restored }

// RestoreHostNs reports the host wall time NewFabric spent restoring
// MN memory from folio files (zero for a fresh or persistence-off
// fabric). A host-side figure like the scale experiment's capacity
// numbers — never part of virtual time.
func (f *Fabric) RestoreHostNs() int64 { return f.restoreHostNs }

// SetPersistMeta durably records a key/value pair (on MN 0's store)
// that survives snapshots and restarts — e.g. an index's super-block
// address, which an attaching client needs before it can read anything.
func (f *Fabric) SetPersistMeta(k, v string) error {
	if !f.PersistEnabled() {
		return fmt.Errorf("dmsim: SetPersistMeta on a fabric without persistence")
	}
	f.pmetaMu.Lock()
	f.pmeta[k] = v
	f.pmetaMu.Unlock()
	return f.mns[0].ps.st.SetMeta(k, v)
}

// PersistMeta reads a durable key/value pair (set this session or
// recovered at construction). Missing keys return "".
func (f *Fabric) PersistMeta(k string) string {
	f.pmetaMu.Lock()
	defer f.pmetaMu.Unlock()
	return f.pmeta[k]
}

// persistMetaFor returns the metadata snapshot compaction should carry
// forward for one MN (all of it lives on MN 0).
func (f *Fabric) persistMetaFor(mn int) map[string]string {
	if mn != 0 {
		return nil
	}
	f.pmetaMu.Lock()
	defer f.pmetaMu.Unlock()
	out := make(map[string]string, len(f.pmeta))
	for k, v := range f.pmeta {
		out[k] = v
	}
	return out
}

// FlushPersist drains every MN's append buffer to its file. Appends
// are modeled as durable at ack time; Flush makes the host file catch
// up (e.g. before out-of-band inspection with chimectl).
func (f *Fabric) FlushPersist() error {
	if !f.PersistEnabled() {
		return nil
	}
	for i, mn := range f.mns {
		if err := mn.ps.st.Flush(); err != nil {
			return fmt.Errorf("dmsim: flushing MN %d: %w", i, err)
		}
	}
	return nil
}

// SnapshotPersist compacts every MN's log into a fresh snapshot
// (folio heap+index, atomic rename), stamped with the fabric's
// frontier. Call it quiesced — compaction reads MN memory without the
// stripe locks. MNs whose log is below AutoCompactEvery still compact:
// this is the explicit snapshot.
func (f *Fabric) SnapshotPersist() error {
	if !f.PersistEnabled() {
		return fmt.Errorf("dmsim: snapshot on a fabric without persistence")
	}
	stamp := f.Frontier()
	for i, mn := range f.mns {
		mn.allocMu.Lock()
		allocOff := mn.allocOff
		mn.allocMu.Unlock()
		if err := mn.ps.st.Compact(mn.mem, allocOff, f.persistMetaFor(i), stamp); err != nil {
			return fmt.Errorf("dmsim: snapshotting MN %d: %w", i, err)
		}
	}
	return nil
}

// ClosePersist cleanly closes every store (dirty flags cleared). The
// fabric must be quiesced and is done with durability afterwards:
// later mutations are NOT logged.
func (f *Fabric) ClosePersist() error {
	if !f.PersistEnabled() {
		return nil
	}
	var first error
	for i, mn := range f.mns {
		if mn.ps == nil {
			continue
		}
		if err := mn.ps.st.Close(); err != nil && first == nil {
			first = fmt.Errorf("dmsim: closing MN %d store: %w", i, err)
		}
		mn.ps = nil
	}
	return first
}

// KillMN crash-stops one memory node: its volatile memory is wiped,
// its folio store is abandoned exactly as a power cut would leave it
// (log flushed — the device is NVM — but the dirty flag still set),
// and every verb aimed at it fails with ErrMNDown until RestartMN.
// Requires persistence (killing an MN without a durable backend would
// silently lose data the simulation acked) and a quiesced fabric.
func (f *Fabric) KillMN(mnIdx int) error {
	if mnIdx < 0 || mnIdx >= len(f.mns) {
		return fmt.Errorf("dmsim: KillMN(%d) of %d MNs", mnIdx, len(f.mns))
	}
	mn := f.mns[mnIdx]
	if mn.ps == nil {
		return fmt.Errorf("dmsim: KillMN(%d) on a fabric without persistence", mnIdx)
	}
	if mn.dead.Load() {
		return fmt.Errorf("dmsim: KillMN(%d): already down", mnIdx)
	}
	if err := mn.ps.st.Abandon(); err != nil {
		return fmt.Errorf("dmsim: abandoning MN %d store: %w", mnIdx, err)
	}
	mn.pool.Reset()
	mn.allocMu.Lock()
	mn.allocOff = 64
	mn.allocMu.Unlock()
	mn.ps = nil
	mn.dead.Store(true)
	return nil
}

// RestartMN recovers a killed MN from its folio file: snapshot pages,
// then log replay (in acked order, tolerating a torn tail), allocator
// watermark and metadata. The replay's virtual cost — priced by the
// Persist cost model from what was actually recovered — is pushed onto
// the MN's NIC and CPU busy horizons, so the first post-restart verbs
// queue behind recovery exactly as they would behind any other busy
// resource. Requires a quiesced fabric.
func (f *Fabric) RestartMN(mnIdx int) (RecoveryStats, error) {
	if mnIdx < 0 || mnIdx >= len(f.mns) {
		return RecoveryStats{}, fmt.Errorf("dmsim: RestartMN(%d) of %d MNs", mnIdx, len(f.mns))
	}
	mn := f.mns[mnIdx]
	if !mn.dead.Load() {
		return RecoveryStats{}, fmt.Errorf("dmsim: RestartMN(%d): not down", mnIdx)
	}
	cfg := f.cfg.Persist.withDefaults()
	st, rec, err := folio.Open(persistPath(cfg.Dir, mnIdx),
		folio.Options{PageSize: cfg.PageSize, AutoCompactEvery: cfg.AutoCompactEvery, Stamp: f.Frontier()})
	if err != nil {
		return RecoveryStats{}, fmt.Errorf("dmsim: recovering MN %d: %w", mnIdx, err)
	}
	if err := rec.Materialize(mn.mem); err != nil {
		st.Close()
		return RecoveryStats{}, fmt.Errorf("dmsim: recovering MN %d: %w", mnIdx, err)
	}
	mn.allocMu.Lock()
	if rec.AllocOff > 64 {
		mn.allocOff = rec.AllocOff
	}
	mn.allocMu.Unlock()
	f.pmetaMu.Lock()
	if f.pmeta == nil {
		f.pmeta = map[string]string{}
	}
	for k, v := range rec.Meta {
		f.pmeta[k] = v
	}
	f.pmetaMu.Unlock()
	mn.ps = &pstore{st: st, cfg: cfg}

	stats := RecoveryStats{
		MN: mnIdx, Pages: rec.Pages, PageBytes: rec.PageBytes,
		Records: rec.Records, RecordBytes: rec.RecordBytes,
		WasDirty: rec.WasDirty, TruncatedTail: rec.TruncatedTail,
		RecoverNs: cfg.recoverNs(rec),
	}
	until := f.Frontier() + stats.RecoverNs
	mn.nic.pushBusy(until)
	mn.cpu.pushBusy(until)
	mn.dead.Store(false)
	return stats, nil
}

// MNDownNow reports whether an MN is currently crash-stopped by
// KillMN (not an injector blackout).
func (f *Fabric) MNDownNow(mnIdx int) bool {
	return mnIdx >= 0 && mnIdx < len(f.mns) && f.mns[mnIdx].dead.Load()
}
