package core

import (
	"fmt"

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

// leaseNs returns the configured lease duration.
func (c *Client) leaseNs() int64 {
	if n := c.ix.opts.LeaseNs; n > 0 {
		return n
	}
	return lease.DefaultNs
}

// lockSwapWord returns the word a lease-mode acquire CAS installs:
// lock bit plus this client's fresh lease.
func (c *Client) lockSwapWord() uint64 {
	return lease.Word(c.dc.ID(), c.dc.Now()+c.leaseNs())
}

// tryStealLock steals a lock whose lease has expired: a full-word CAS
// from the exact stale word to a fresh lease of our own, so concurrent
// stealers (and a holder that is merely slow, whose release WRITE
// changes the word) race safely — at most one CAS wins. Returns whether
// this client now holds the lock. The caller must re-read the node
// under the stolen lock before trusting any cached state.
func (c *Client) tryStealLock(addr dmsim.GAddr, prev uint64) (bool, error) {
	if !lease.Expired(prev, c.dc.Now()) {
		return false, nil
	}
	c.obs.LeaseExpired.Inc()
	_, ok, err := c.dc.CAS(addr, prev, c.lockSwapWord())
	if err != nil || !ok {
		return false, err
	}
	c.obs.Recoveries.Inc()
	return true, nil
}

// tryStealLeafLease steals an expired leaf lock and repairs the
// piggybacked metadata the dead holder took with it. On success the
// returned lock word carries a freshly recomputed vacancy bitmap and
// argmax, exactly as a piggyback acquire would have delivered.
func (c *Client) tryStealLeafLease(leaf dmsim.GAddr, prev uint64) (lockWord, bool, error) {
	stolen, err := c.tryStealLock(leafLockAddr(leaf), prev)
	if err != nil || !stolen {
		return lockWord{}, false, err
	}
	lw, err := c.repairLeaf(leaf)
	if err != nil {
		// The steal succeeded but the repair read failed (fabric fault):
		// surface the error; our own lease on the stuck lock lets the
		// next contender recover.
		return lockWord{}, false, err
	}
	return lw, true, nil
}

// repairLeaf re-reads the whole leaf under the (stolen) lock and
// recomputes the lock-word payload from the entries themselves.
func (c *Client) repairLeaf(leaf dmsim.GAddr) (lockWord, error) {
	im, _, err := c.fetchWholeLeaf(leaf)
	if err != nil {
		return lockWord{}, err
	}
	lw := recomputeLockWord(im)
	c.ix.leaf.putImage(im)
	return lw, nil
}

// acquireLeafLease is the lease-mode leaf lock acquisition: the same
// piggyback masked-CAS as acquireLeafLock, but the swap word carries
// our lease and a failed CAS may steal from an expired holder. The
// same-CN lock table is bypassed entirely — a local handover would hand
// a waiter the *holder's* lease, turning a live client into a theft
// target — so cross-client contention is all remote, as on a fabric
// whose CNs crashed independently.
func (c *Client) acquireLeafLease(leaf dmsim.GAddr) (lockWord, error) {
	addr := leafLockAddr(leaf)
	for try := 0; try < maxRetries; try++ {
		prev, ok, err := c.dc.MaskedCAS(addr, 0, c.lockSwapWord(), lockBit, ^uint64(0))
		if err != nil {
			return lockWord{}, err
		}
		if ok {
			c.backoff.Reset()
			return decodeLockWord(prev), nil
		}
		lw, stolen, err := c.tryStealLeafLease(leaf, prev)
		if err != nil {
			return lockWord{}, err
		}
		if stolen {
			c.backoff.Reset()
			return lw, nil
		}
		c.obs.LockBackoffs.Inc()
		c.backoff.Yield(c.dc)
	}
	return lockWord{}, fmt.Errorf("core: leaf %v: lock acquisition starved", leaf)
}
