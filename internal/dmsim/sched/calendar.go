// Package sched provides the ordering substrate of dmsim's cohort
// scheduler: the event calendar of one lane — the set of parked members
// — popped in virtual-clock order.
//
// Members are dense int32 slots and the per-slot arrays are sized by
// Grow, so parking and unparking a client never allocates. Every
// operation is single-threaded by contract (the caller holds its lane's
// lock). Pop order is a pure function of the SET of parked (key, slot)
// pairs — never of the order they were pushed in, and never of host
// scheduling — which is what lets the event loop file concurrent
// parkers in whatever order the host produced them.
package sched

import (
	"math"
	"slices"
)

// NoSlot is returned by PopBelow when no entry is eligible.
const NoSlot = int32(-1)

// Calendar is a binary min-heap of parked slots ordered by (key, slot):
// the smallest virtual clock first, the lower slot among equal clocks.
// The NIC's queueing recurrence is only faithful for arrivals in time
// order, so the member that runs next is always the one whose clock is
// furthest behind. The zero value is an empty calendar; Grow before
// Push.
type Calendar struct {
	heap   []int32 // parked slots in heap order; capacity reserved by Grow
	key    []int64 // per-slot virtual-ns key
	parked []bool  // per-slot membership (guards double push)
}

// Grow ensures the calendar can hold slots [0, n).
func (c *Calendar) Grow(n int) {
	for len(c.key) < n {
		c.key = append(c.key, 0)
		c.parked = append(c.parked, false)
	}
	c.heap = slices.Grow(c.heap, len(c.key)-len(c.heap))
}

// Len returns the number of parked slots.
func (c *Calendar) Len() int { return len(c.heap) }

// before reports whether slot a pops ahead of slot b.
//
//chime:noalloc
func (c *Calendar) before(a, b int32) bool {
	return c.key[a] < c.key[b] || c.key[a] == c.key[b] && a < b
}

// Push parks a slot at the given key. Pushing an already-parked slot
// panics: the caller has lost track of who is running, and continuing
// would run one member twice.
//
//chime:noalloc
func (c *Calendar) Push(slot int32, key int64) {
	if c.parked[slot] {
		panic("sched: Push of an already-parked slot")
	}
	c.parked[slot] = true
	c.key[slot] = key
	i := len(c.heap)
	c.heap = c.heap[:i+1] // within the capacity Grow reserved
	for i > 0 {
		up := (i - 1) / 2
		if !c.before(slot, c.heap[up]) {
			break
		}
		c.heap[i] = c.heap[up]
		i = up
	}
	c.heap[i] = slot
}

// MinKey returns the smallest parked key, or math.MaxInt64 when empty.
//
//chime:noalloc
func (c *Calendar) MinKey() int64 {
	if len(c.heap) == 0 {
		return math.MaxInt64
	}
	return c.key[c.heap[0]]
}

// PopBelow removes and returns the first slot in (key, slot) order if
// its key is < limit, or NoSlot when nothing is parked below limit.
//
//chime:noalloc
func (c *Calendar) PopBelow(limit int64) int32 {
	if len(c.heap) == 0 || c.key[c.heap[0]] >= limit {
		return NoSlot
	}
	top := c.heap[0]
	c.parked[top] = false
	n := len(c.heap) - 1
	last := c.heap[n]
	c.heap = c.heap[:n]
	// Sift the displaced last entry down from the root.
	i := 0
	for {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if kid+1 < n && c.before(c.heap[kid+1], c.heap[kid]) {
			kid++
		}
		if !c.before(c.heap[kid], last) {
			break
		}
		c.heap[i] = c.heap[kid]
		i = kid
	}
	if n > 0 {
		c.heap[i] = last
	}
	return top
}
