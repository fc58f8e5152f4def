package dmsim

import (
	"fmt"

	"chime/internal/obs"
)

// ChunkSize is the default unit of memory handed out by the MN-side
// allocation RPC, matching the 16 MB chunks CHIME allocates to each
// client (§4.2.2). Override per fabric with Config.ChunkBytes.
const ChunkSize = 16 << 20

// AllocRPC asks one MN's (weak) CPU to carve size bytes out of its
// region and returns the base address. It models a two-sided RPC: the
// client pays a round trip plus the MN CPU service time, which is far
// more expensive than a one-sided verb — which is why CHIME amortizes it
// over 16 MB chunks.
func (c *Client) AllocRPC(mnIdx int, size int) (GAddr, error) {
	c.Sync()
	if mnIdx < 0 || mnIdx >= len(c.f.mns) {
		return NilGAddr, fmt.Errorf("dmsim: AllocRPC on unknown MN %d", mnIdx)
	}
	if size <= 0 {
		return NilGAddr, fmt.Errorf("dmsim: AllocRPC size %d", size)
	}
	penalty, err := c.faultGate(VerbRPC, mnIdx)
	if err != nil {
		return NilGAddr, err
	}
	mn := c.f.mns[mnIdx]

	mn.allocMu.Lock()
	// Keep allocations 64-byte aligned so node headers sit at cache-line
	// starts, as the version layout assumes.
	off := (mn.allocOff + 63) &^ 63
	if off+uint64(size) > uint64(len(mn.mem)) {
		mn.allocMu.Unlock()
		return NilGAddr, fmt.Errorf("dmsim: MN %d out of memory (%d used of %d, want %d)",
			mnIdx, off, len(mn.mem), size)
	}
	mn.allocOff = off + uint64(size)
	watermark := mn.allocOff
	mn.allocMu.Unlock()
	var persistNs int64
	if mn.ps != nil {
		persistNs = mn.ps.logAlloc(watermark)
	}

	arrival := c.now + c.issueNs + penalty
	done := mn.nic.serve(c.shard(), kindRPC, arrival, 64) + persistNs
	if c.fl.Recording() {
		// The sync RPC advances the clock by exactly
		// issue+penalty+queue+service+rpc+rtt; charge each segment
		// directly (no pipelining to overlap with, unlike Poll's peel).
		svc := mn.nic.serviceNs(64)
		c.fl.Charge(obs.PhaseFaultRetry, penalty)
		c.fl.Charge(obs.PhaseNICQueue, done-arrival-svc)
		c.fl.Charge(obs.PhaseNICService, svc)
		c.fl.Charge(obs.PhaseMNService, c.rpcNs)
		c.fl.ChargeActive(c.issueNs + c.rttNs)
	}
	c.finish(done + c.rpcNs)

	c.stats.RPCs++
	c.stats.Trips++
	return GAddr{MN: uint8(mnIdx), Off: off}, nil
}

// UsedBytes reports how much of one MN's region has been allocated.
func (f *Fabric) UsedBytes(mnIdx int) uint64 {
	mn := f.mns[mnIdx]
	mn.allocMu.Lock()
	defer mn.allocMu.Unlock()
	return mn.allocOff
}

// ChunkAllocator is the client-side sub-allocator: it requests chunk
// regions via AllocRPC and bump-allocates nodes out of them, spreading
// successive chunks across MNs round-robin. Not safe for concurrent use
// (each client owns one).
type ChunkAllocator struct {
	c      *Client
	nextMN int
	chunk  int

	cur    GAddr
	remain int
}

// NewChunkAllocator builds an allocator for the client, starting chunk
// placement at the given MN and using the fabric's configured chunk
// size.
func NewChunkAllocator(c *Client, startMN int) *ChunkAllocator {
	chunk := c.f.cfg.ChunkBytes
	if chunk <= 0 {
		chunk = ChunkSize
	}
	return &ChunkAllocator{c: c, nextMN: startMN % c.f.MNs(), chunk: chunk}
}

// Alloc returns a 64-byte-aligned region of the requested size, fetching
// a fresh chunk over RPC when the current one is exhausted.
func (a *ChunkAllocator) Alloc(size int) (GAddr, error) {
	if size <= 0 {
		return NilGAddr, fmt.Errorf("dmsim: Alloc size %d", size)
	}
	aligned := (size + 63) &^ 63
	if aligned > a.chunk {
		// Oversized request: dedicated RPC.
		addr, err := a.c.AllocRPC(a.nextMN, aligned)
		a.nextMN = (a.nextMN + 1) % a.c.f.MNs()
		return addr, err
	}
	if a.remain < aligned {
		chunk, err := a.c.AllocRPC(a.nextMN, a.chunk)
		if err != nil {
			return NilGAddr, err
		}
		a.nextMN = (a.nextMN + 1) % a.c.f.MNs()
		a.cur = chunk
		a.remain = a.chunk
	}
	addr := a.cur
	a.cur = a.cur.Add(uint64(aligned))
	a.remain -= aligned
	return addr, nil
}
