// Package dmsim simulates a disaggregated-memory (DM) fabric: a pool of
// memory nodes (MNs) exposing one-sided RDMA-style verbs (READ, WRITE,
// CAS, masked-CAS and doorbell-batched reads) to compute-node (CN)
// clients.
//
// The simulator replaces the RDMA testbed used by the CHIME paper
// (SOSP '24). It preserves the three properties the paper's evaluation
// depends on:
//
//  1. Bytes moved. Every verb is charged for the exact payload it
//     transfers, so read and write amplification are visible.
//  2. Round trips. Every verb costs one network round trip; doorbell
//     batching collapses several reads into one.
//  3. NIC bottlenecks. Each MN NIC is a shared queueing resource with
//     both a bandwidth cap and an IOPS cap, so small transfers become
//     IOPS-bound and large transfers become bandwidth-bound, exactly the
//     regimes discussed in §3.2.3 of the paper.
//
// Time is virtual: each client carries its own clock and never sleeps,
// so experiments with hundreds of simulated clients run quickly on a
// small machine. Data movement is real: READ and WRITE copy bytes on the
// shared MN buffer without synchronization, so concurrent readers can
// observe torn state — just as on real hardware — and the index layers
// above must detect it with their optimistic-synchronization machinery.
package dmsim

import (
	"fmt"
	"time"
)

// Config describes the simulated fabric.
type Config struct {
	// MNs is the number of memory nodes in the memory pool.
	MNs int

	// MNSize is the number of bytes of remote memory per MN.
	MNSize int

	// BandwidthBps is the per-MN NIC bandwidth in bytes per second,
	// each direction. The paper's testbed uses 100 Gbps ConnectX-6
	// NICs, i.e. 12.5 GB/s.
	BandwidthBps float64

	// IOPS is the per-MN NIC verb-rate ceiling (verbs per second).
	// Small messages hit this bound before the bandwidth bound.
	IOPS float64

	// BaseRTT is the zero-load one-sided verb latency (propagation +
	// DMA), applied once per round trip.
	BaseRTT time.Duration

	// IssueOverhead is the CN-side cost to post a verb (doorbell ring,
	// WQE write). Batched verbs pay it once per batch.
	IssueOverhead time.Duration

	// RPCServiceTime is the MN-side CPU cost of servicing an
	// allocation RPC. MNs have weak CPUs, so this is much larger than
	// a one-sided verb.
	RPCServiceTime time.Duration

	// MNCPUs is the number of wimpy offload-serving cores per memory
	// node (mncpu.go). Offloaded verbs queue for this bounded compute,
	// modeled as a single server of MNCPUs times one core's rate. Zero
	// selects the default (2).
	MNCPUs int

	// MNServiceTime is the fixed MN CPU dispatch cost per offloaded
	// program, before the per-byte touch cost. Zero selects the default
	// (600 ns).
	MNServiceTime time.Duration

	// MNScanBps is the per-core rate at which an MN core streams local
	// memory while executing an offloaded program (bytes/second); every
	// byte the program touches through its metered view costs
	// 1/MNScanBps seconds of service. Zero selects the default (4 GB/s,
	// a wimpy-core figure well under the NIC's 12.5 GB/s).
	MNScanBps float64

	// VerbTimeout is the client-side completion timeout the
	// fault-injection retry policy charges per transparent repost
	// (fault.go). Zero selects the default (10 µs). Irrelevant unless a
	// FaultInjector is attached.
	VerbTimeout time.Duration

	// MaxVerbRetries bounds the transparent reposts of a faulted verb
	// before the typed error (ErrTimeout, ErrNICUnavailable, ErrMNDown)
	// surfaces. Zero selects the default (8).
	MaxVerbRetries int

	// Lanes is the number of parallel execution lanes of the cohort
	// scheduler (and per-MN NIC shards): cohort members are partitioned
	// by join order across lanes, each lane runs its members one at a
	// time in virtual-clock order, and each lane owns 1/Lanes of every
	// NIC's capacity so host cores never serialize on one busy horizon.
	// Zero or one means a single lane: one single-server NIC per MN and
	// one member running at a time.
	Lanes int

	// QuantumRTTs widens the cohort synchronization window to this many
	// base RTTs (default 1). Large cohorts amortize park/unpark cost
	// over more verbs per window at the price of admitting more
	// virtual-time skew between members.
	QuantumRTTs int

	// Persist optionally attaches a per-MN durability backend
	// (persist.go): every MN-memory mutation is logged to a folio
	// write-behind file in Persist.Dir, snapshots compact the log, and
	// KillMN/RestartMN model true MN crash-recovery. The zero value
	// disables persistence with no change to the verb hot path.
	Persist PersistConfig

	// ChunkBytes is the unit handed out by the allocation RPC and
	// sub-allocated client-side. CHIME uses 16 MB chunks (§4.2.2);
	// benchmark fleets with hundreds of simulated clients may shrink it
	// to keep per-client reservation inside a laptop-sized MN — chunk
	// size only changes how often the (rare) allocation RPC fires.
	ChunkBytes int
}

// DefaultConfig returns fabric parameters modeled on the paper's
// testbed: 100 Gbps NICs, ~60M verbs/s small-message ceiling, 2 µs
// one-sided latency.
func DefaultConfig() Config {
	return Config{
		MNs:            1,
		MNSize:         256 << 20,
		BandwidthBps:   12.5e9,
		IOPS:           60e6,
		BaseRTT:        2 * time.Microsecond,
		IssueOverhead:  200 * time.Nanosecond,
		RPCServiceTime: 10 * time.Microsecond,
		ChunkBytes:     ChunkSize,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.MNs <= 0 {
		return fmt.Errorf("dmsim: MNs must be positive, got %d", c.MNs)
	}
	if c.MNSize <= 0 {
		return fmt.Errorf("dmsim: MNSize must be positive, got %d", c.MNSize)
	}
	if c.BandwidthBps <= 0 {
		return fmt.Errorf("dmsim: BandwidthBps must be positive, got %g", c.BandwidthBps)
	}
	if c.IOPS <= 0 {
		return fmt.Errorf("dmsim: IOPS must be positive, got %g", c.IOPS)
	}
	if c.BaseRTT < 0 || c.IssueOverhead < 0 || c.RPCServiceTime < 0 || c.VerbTimeout < 0 || c.MNServiceTime < 0 {
		return fmt.Errorf("dmsim: negative latency parameter")
	}
	if c.MNCPUs < 0 {
		return fmt.Errorf("dmsim: negative MNCPUs")
	}
	if c.MNScanBps < 0 {
		return fmt.Errorf("dmsim: negative MNScanBps")
	}
	if c.MaxVerbRetries < 0 {
		return fmt.Errorf("dmsim: negative MaxVerbRetries")
	}
	if c.ChunkBytes < 0 {
		return fmt.Errorf("dmsim: negative ChunkBytes")
	}
	if c.Lanes < 0 {
		return fmt.Errorf("dmsim: negative Lanes")
	}
	if c.QuantumRTTs < 0 {
		return fmt.Errorf("dmsim: negative QuantumRTTs")
	}
	if err := c.Persist.validate(); err != nil {
		return err
	}
	return nil
}

// lanes returns the effective lane/shard count (>= 1).
func (c Config) lanes() int {
	return max(c.Lanes, 1)
}

// quantumNs returns the effective cohort window size in virtual ns.
func (c Config) quantumNs() int64 {
	q := c.BaseRTT.Nanoseconds()
	if c.QuantumRTTs > 1 {
		q *= int64(c.QuantumRTTs)
	}
	if q < 1 {
		q = 1
	}
	return q
}
