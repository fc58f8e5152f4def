package dmsim

import "runtime"

// Backoff is the capped exponential backoff the index clients' optimistic
// retry loops share (torn reads, lock CAS conflicts, traversal restarts):
// 64 ns of virtual time doubling to 8192 ns, plus a scheduler yield so
// the conflicting writer can finish in real time too. One per client.
type Backoff struct{ ns int64 }

// Yield backs c off by the next step.
func (b *Backoff) Yield(c *Client) {
	if b.ns < 64 {
		b.ns = 64
	} else if b.ns < 8192 {
		b.ns *= 2
	}
	c.Advance(b.ns)
	runtime.Gosched()
}

// Reset returns to the first step; call it when an attempt succeeds.
func (b *Backoff) Reset() { b.ns = 0 }
