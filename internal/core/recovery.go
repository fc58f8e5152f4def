package core

import (
	"chime/internal/dmsim"
	"chime/internal/lease"
)

// Lease-based lock recovery. A client that crashes between acquiring a
// remote lock and releasing it leaves the lock bit set forever — on
// real hardware the survivors are stuck until an out-of-band fencing
// mechanism intervenes. With Options.LeaseLocks enabled, every lock
// acquisition stamps an (owner, expiry) lease into the spare bits of
// the 8-byte lock word it was going to CAS anyway, so leases cost zero
// extra verbs. A contender that finds the lock held past its expiry
// steals it with a full-word CAS against the exact stale word (so two
// stealers cannot both win) and, for leaves, repairs the piggybacked
// metadata by re-reading the node and recomputing the vacancy bitmap
// and argmax from scratch.
//
// The word layout and steal protocol are shared across all four index
// implementations — see internal/lease. Here the lease bits overlap
// CHIME's vacancy/argmax payload, which is safe: the
// piggybacked payload only lives in the word while it is UNLOCKED (the
// acquire CAS returns it as prev and the release WRITE puts the updated
// copy back); while locked, every index in this repo treats the word as
// opaque. Leases therefore require PiggybackVacancy (enforced by
// Options.Validate): the non-piggyback ablation reads the word back
// after acquiring and would decode the lease as a bitmap.
//
// Crash-consistency argument for the repair: the simulator moves data
// at post time and a crashed client fails its verbs *before* any data
// movement, so remote node images are always consistent at verb
// granularity — a victim dies between protocol steps, never inside
// one. The repair therefore never sees a torn image; what it fixes is
// the metadata the victim took with it (the vacancy bitmap and argmax
// travel through the lock word, and the stale word holds a lease
// instead). Re-reading the leaf and recomputing both — plus the
// caller's usual re-validation of the node under the stolen lock —
// rolls the node forward to a state any surviving writer can build on.

// lockSwap is what a lock CAS swaps in, under which mask: the lock bit
// alone; for a leaf with PiggybackVacancy the lock bit over the whole
// word, so the vacancy bitmap and argmax come back in the previous word
// and the unlock writes them back; or under LeaseLocks this client's
// (owner, expiry) lease over the whole word. Every lock of the tree (the
// write op's, lockNode, the merge's) swaps what this says.
//
//chime:noalloc
func (c *Client) lockSwap(leaf bool) (word, mask uint64) {
	if c.ix.opts.LeaseLocks {
		leaseNs := c.ix.opts.LeaseNs
		if leaseNs <= 0 {
			leaseNs = lease.DefaultNs
		}
		return lease.Word(c.dc.ID(), c.dc.Now()+leaseNs), ^uint64(0)
	}
	if leaf && c.ix.opts.PiggybackVacancy {
		return lockBit, ^uint64(0)
	}
	return lockBit, lockBit
}

// lockLost acts on a lock CAS that found prev instead of a free lock:
// under LeaseLocks a lock stuck under an expired lease is stolen with a
// full-word CAS from the exact stale word to a fresh lease of our own, so
// concurrent stealers (and a holder that is merely slow, whose release
// WRITE changes the word) race safely — at most one CAS wins. Otherwise
// it backs off; held reports a steal. A stolen leaf's payload left with
// its dead holder: the caller recomputes it from a whole-leaf read, as
// every lock holder re-reads the node before touching it.
//
//chime:noalloc
func (c *Client) lockLost(addr dmsim.GAddr, prev uint64) (held bool, err error) {
	if c.ix.opts.LeaseLocks && lease.Expired(prev, c.dc.Now()) {
		c.obs.LeaseExpired.Inc()
		word, _ := c.lockSwap(false)
		_, won, err := c.dc.CAS(addr, prev, word)
		if err != nil {
			return false, err
		}
		if won {
			c.obs.Recoveries.Inc()
			return true, nil
		}
	}
	c.backoff.Yield(c.dc)
	return false, nil
}
