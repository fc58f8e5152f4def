// Package nodecache is the compute-node cache of remote tree nodes
// (§2.2, §3.1) that CHIME, Sherman and SMART share: keyed by node
// address, bounded by a byte budget the caller measures each node in,
// evicting least recently used first.
//
// A cache is striped into independent shards, each with its own mutex,
// LRU order and share of the budget: one mutex would serialize every
// traversal of every client goroutine on the CN. Eviction is LRU per
// shard. The cache never writes to a value it holds and never hands one
// back for reuse, since a client may still be reading a node that was
// evicted under it.
package nodecache

import (
	"sync"

	"chime/internal/dmsim"
)

// MinShardBudget keeps striping from starving small caches: a shard that
// cannot hold a handful of nodes is useless, so a budget under
// stripes×MinShardBudget collapses to fewer shards (1 in the limit).
const MinShardBudget = 64 << 10

// Cache maps node addresses to cached nodes V (a pointer type).
type Cache[V comparable] struct {
	shards []shard[V]
}

type shard[V comparable] struct {
	mu     sync.Mutex
	budget int64
	used   int64
	index  map[uint64]int32 // packed node address → slab slot
	slab   []entry[V]
	head   int32 // most recently used slot, -1 when empty
	tail   int32 // least recently used slot, -1 when empty
	free   int32 // free slots chain through next

	hits, misses, invalidations int64
}

type entry[V comparable] struct {
	key        uint64 // packed node address
	v          V
	size       int64
	prev, next int32 // toward head and toward tail; -1 past either end
}

// Stats is a snapshot of cache behaviour and footprint, aggregated over
// all shards.
type Stats struct {
	Hits, Misses, Invalidations int64
	UsedBytes, BudgetBytes      int64
	Nodes                       int
}

// New returns a cache of budget bytes over up to stripes shards (a
// power of two), fewer when the budget is small. A budget of 0 caches
// nothing. The remainder of an uneven split goes to shard 0, so the
// shards' budgets add up to budget exactly.
func New[V comparable](budget int64, stripes int) *Cache[V] {
	n := stripes
	for n > 1 && budget/int64(n) < MinShardBudget {
		n /= 2
	}
	c := &Cache[V]{shards: make([]shard[V], n)}
	per := budget / int64(n)
	for i := range c.shards {
		c.shards[i] = shard[V]{budget: per, index: make(map[uint64]int32), head: -1, tail: -1, free: -1}
	}
	c.shards[0].budget += budget - per*int64(n)
	return c
}

// shardOf maps a node address to its shard. Node addresses are 64-byte
// aligned, so the low 6 bits are dead; mix the meaningful bits.
func (c *Cache[V]) shardOf(addr dmsim.GAddr) *shard[V] {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	h := (addr.Off >> 6) * 0x9e3779b97f4a7c15
	h ^= uint64(addr.MN) * 0xff51afd7ed558ccd
	return &c.shards[(h>>32)%uint64(len(c.shards))]
}

// Get returns the cached node, promoting it, or the zero V.
func (c *Cache[V]) Get(addr dmsim.GAddr) V {
	s := c.shardOf(addr)
	var v V
	s.mu.Lock()
	if i, ok := s.index[addr.Pack()]; ok {
		s.hits++
		s.moveToFront(i)
		v = s.slab[i].v
	} else {
		s.misses++
	}
	s.mu.Unlock()
	return v
}

// Put inserts or replaces a node costing size bytes, evicting from the
// LRU end of its shard as needed. A node larger than its shard's budget
// is declined. Put reports whether the cache took the node: one it took
// is the cache's from then on, one it declined is still the caller's.
func (c *Cache[V]) Put(addr dmsim.GAddr, v V, size int64) bool {
	s := c.shardOf(addr)
	key := addr.Pack()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budget <= 0 || size > s.budget {
		return false
	}
	if i, ok := s.index[key]; ok {
		e := &s.slab[i]
		s.used += size - e.size
		e.v, e.size = v, size
		s.moveToFront(i)
	} else {
		i := s.free
		if i >= 0 {
			s.free = s.slab[i].next
		} else {
			i = int32(len(s.slab))
			s.slab = append(s.slab, entry[V]{})
		}
		s.slab[i] = entry[V]{key: key, v: v, size: size}
		s.pushFront(i)
		s.index[key] = i
		s.used += size
	}
	for s.used > s.budget && s.tail >= 0 {
		s.remove(s.tail)
	}
	return true
}

// Drop removes addr's node, if cached (a stale node, §4.2.3).
func (c *Cache[V]) Drop(addr dmsim.GAddr) {
	var zero V
	c.DropCopy(addr, zero)
}

// DropCopy is Drop of one copy of the node: with v set it drops addr's
// entry only while the cache holds v, so a fresher copy put since stays.
func (c *Cache[V]) DropCopy(addr dmsim.GAddr, v V) {
	var zero V
	s := c.shardOf(addr)
	s.mu.Lock()
	if i, ok := s.index[addr.Pack()]; ok && (v == zero || s.slab[i].v == v) {
		s.remove(i)
		s.invalidations++
	}
	s.mu.Unlock()
}

// Stats aggregates every shard's counters and footprint.
func (c *Cache[V]) Stats() Stats {
	var st Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Invalidations += s.invalidations
		st.UsedBytes += s.used
		st.BudgetBytes += s.budget
		st.Nodes += len(s.index)
		s.mu.Unlock()
	}
	return st
}

func (s *shard[V]) pushFront(i int32) {
	e := &s.slab[i]
	e.prev, e.next = -1, s.head
	if s.head >= 0 {
		s.slab[s.head].prev = i
	} else {
		s.tail = i
	}
	s.head = i
}

func (s *shard[V]) unlink(i int32) {
	e := &s.slab[i]
	if e.prev >= 0 {
		s.slab[e.prev].next = e.next
	} else {
		s.head = e.next
	}
	if e.next >= 0 {
		s.slab[e.next].prev = e.prev
	} else {
		s.tail = e.prev
	}
}

func (s *shard[V]) moveToFront(i int32) {
	if s.head != i {
		s.unlink(i)
		s.pushFront(i)
	}
}

// remove unlinks slot i, forgets its node and frees the slot.
func (s *shard[V]) remove(i int32) {
	s.unlink(i)
	e := &s.slab[i]
	delete(s.index, e.key)
	s.used -= e.size
	*e = entry[V]{next: s.free}
	s.free = i
}
