// Package core implements CHIME (SOSP '24): a cache-efficient,
// high-performance hybrid range index on disaggregated memory that
// combines B+-tree internal nodes with hopscotch-hashing leaf nodes.
//
// The package contains the paper's three core mechanisms:
//
//   - Three-level optimistic synchronization (§4.1): two-level cache-line
//     versions (node-level NV + entry-level EV nibbles) detect node and
//     entry writes; reused hopscotch bitmaps detect concurrent hop-range
//     writes.
//   - Access-aggregated metadata management (§4.2): the vacancy bitmap
//     and argmax field ride inside the 8-byte lock word and are acquired
//     with a single masked-CAS; leaf metadata (sibling pointer) is
//     replicated every H entries so any neighborhood read includes a
//     replica; sibling-based validation replaces per-leaf fence keys.
//   - Hotness-aware speculative reads (§4.3): an LFU hotspot buffer on
//     each compute node records exact entry locations of hot keys so a
//     search can fetch one entry instead of a whole neighborhood.
//
// Remote memory is reached through the one-sided verbs of
// internal/dmsim; all node images are explicit byte encodings, exactly
// as a client library on real RDMA hardware would lay them out.
package core

import (
	"fmt"

	"chime/internal/offroute"
)

// Options configures a CHIME tree. The zero value is not valid; use
// DefaultOptions and override fields.
type Options struct {
	// SpanSize is the number of entries per node (both internal and
	// leaf). Paper default: 64.
	SpanSize int

	// Neighborhood is the hopscotch neighborhood size H for leaf
	// nodes. Paper default: 8. Must divide evenly into leaf groups:
	// SpanSize%Neighborhood == 0.
	Neighborhood int

	// ValueSize is the inline value size in bytes. Ignored when
	// Indirect is set.
	ValueSize int

	// Indirect stores an 8-byte pointer per leaf entry instead of the
	// value; the KV block lives in separately allocated remote memory
	// (§4.5, CHIME-Indirect).
	Indirect bool

	// KeySize models the on-wire key size in bytes for layout
	// accounting (the API key is always a uint64; larger keys pad the
	// entry). Must be >= 8. Paper default: 8.
	KeySize int

	// PiggybackVacancy enables vacancy-bitmap piggybacking on the lock
	// word via masked-CAS (§4.2.1). When false, inserts issue a
	// dedicated READ for the vacancy bitmap after acquiring the lock —
	// the "+Vacancy" ablation of Figure 15.
	PiggybackVacancy bool

	// ReplicateMeta embeds a leaf-metadata replica every H entries
	// (§4.2.2). When false, every leaf read issues a dedicated READ
	// for the leaf header — the "+Leaf Meta" ablation of Figure 15.
	ReplicateMeta bool

	// SpeculativeRead enables the hotness-aware speculative read
	// mechanism (§4.3).
	SpeculativeRead bool

	// LeaseLocks stamps an (owner, expiry) lease into every remote lock
	// acquisition so survivors can detect and steal locks whose holder
	// crashed (recovery.go). Requires PiggybackVacancy: leases live in
	// the spare bits of the word the piggyback CAS already swaps. Lease
	// mode bypasses the same-CN lock table (a local handover would hand
	// over the holder's lease).
	LeaseLocks bool

	// LeaseNs is the lease duration in virtual nanoseconds. Zero means
	// the default (500 µs), far above any critical section so live
	// holders are never stolen from.
	LeaseNs int64

	// Offload selects the hybrid one-sided/RPC protocol: per-op routing
	// between one-sided traversal and the MN-side offload program
	// registered at bootstrap (mnprog.go). The zero value (ModeOff) is
	// pure one-sided traversal, bit-identical to a build without the
	// offload plane. ModeAlways offloads every supported op; ModeAdaptive
	// routes per op on observed cost and hotness (internal/offroute).
	Offload offroute.Mode

	// VarKeys enables the variable-length key API (§4.5): leaf entries
	// store an 8-byte prefix fingerprint plus a pointer to a chain of
	// remote blocks holding the full keys and values. Use the *KV
	// methods (InsertKV, SearchKV, ...); the uint64 API then operates
	// on raw fingerprints. Incompatible with Indirect (VarKeys already
	// stores indirect blocks).
	VarKeys bool
}

// DefaultOptions returns the paper's default configuration: span 64,
// neighborhood 8, 8-byte keys and values, all techniques enabled.
func DefaultOptions() Options {
	return Options{
		SpanSize:         64,
		Neighborhood:     8,
		ValueSize:        8,
		KeySize:          8,
		PiggybackVacancy: true,
		ReplicateMeta:    true,
		SpeculativeRead:  true,
	}
}

// maxNeighborhood bounds Options.Neighborhood: a home entry's hopscotch
// bitmap is 2 bytes.
const maxNeighborhood = 16

// Validate reports whether the options describe a buildable tree.
func (o Options) Validate() error {
	if o.SpanSize < 2 || o.SpanSize > 1024 {
		return fmt.Errorf("core: SpanSize %d out of [2,1024]", o.SpanSize)
	}
	if o.Neighborhood < 1 || o.Neighborhood > maxNeighborhood {
		return fmt.Errorf("core: Neighborhood %d out of [1,16] (paper max 16: 2-byte hopscotch bitmap)", o.Neighborhood)
	}
	if o.Neighborhood > o.SpanSize {
		return fmt.Errorf("core: Neighborhood %d > SpanSize %d", o.Neighborhood, o.SpanSize)
	}
	if o.SpanSize%o.Neighborhood != 0 {
		return fmt.Errorf("core: SpanSize %d not a multiple of Neighborhood %d", o.SpanSize, o.Neighborhood)
	}
	if !o.Indirect && (o.ValueSize < 1 || o.ValueSize > 4096) {
		return fmt.Errorf("core: ValueSize %d out of [1,4096]", o.ValueSize)
	}
	if o.KeySize < 8 || o.KeySize > 256 {
		return fmt.Errorf("core: KeySize %d out of [8,256]", o.KeySize)
	}
	if o.VarKeys && o.Indirect {
		return fmt.Errorf("core: VarKeys and Indirect are mutually exclusive")
	}
	if o.LeaseLocks && !o.PiggybackVacancy {
		return fmt.Errorf("core: LeaseLocks requires PiggybackVacancy (leases ride the piggyback CAS word)")
	}
	if o.LeaseNs < 0 {
		return fmt.Errorf("core: negative LeaseNs")
	}
	return nil
}
