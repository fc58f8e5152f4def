package core

import (
	"container/list"
	"sync"

	"chime/internal/dmsim"
)

// nodeCache is the compute-node-side cache of internal tree nodes
// (§2.2, §3.1). It is shared by all clients of one CN, keyed by remote
// node address, and bounded by a byte budget measured in *encoded* node
// bytes — the unit the paper reports cache consumption in.
//
// The cache is lock-striped into cacheShards independent shards, each
// with its own mutex, LRU list and byte budget: a single global mutex
// would serialize every traversal of every client goroutine on the CN,
// which shows up as wall-clock contention at high client counts.
// Eviction is LRU per shard (global LRU order is approximated, which is
// standard for striped caches). Nodes are stored as fetched, an image
// with its header decoded (internalImage), and every client routes on
// the one shared image: the cache never writes to an image it holds and
// never hands one back for reuse, since a client may still be reading a
// node that was evicted under it. Lookups are local and free of network
// cost.
const cacheShards = 16

// minShardBudget keeps striping from starving tiny caches: a shard that
// cannot hold a handful of nodes is useless, so small budgets collapse
// to fewer shards (1 in the limit — the pre-sharding behaviour).
const minShardBudget = 64 << 10

type nodeCache struct {
	shards []cacheShard
}

type cacheShard struct {
	mu     sync.Mutex
	budget int64
	used   int64
	lru    *list.List // front = most recent; values are *cacheSlot
	items  map[dmsim.GAddr]*list.Element

	hits, misses, invalidations int64
}

type cacheSlot struct {
	addr dmsim.GAddr
	node *internalImage
	size int64
}

func newNodeCache(budget int64) *nodeCache {
	n := cacheShards
	for n > 1 && budget/int64(n) < minShardBudget {
		n /= 2
	}
	c := &nodeCache{shards: make([]cacheShard, n)}
	// Split the budget across shards; remainder bytes go to shard 0 so
	// the total is preserved exactly.
	per := budget / int64(n)
	for i := range c.shards {
		b := per
		if i == 0 {
			b += budget - per*int64(n)
		}
		c.shards[i] = cacheShard{
			budget: b,
			lru:    list.New(),
			items:  make(map[dmsim.GAddr]*list.Element),
		}
	}
	return c
}

// shardOf maps a node address to its shard. Node addresses are 64-byte
// aligned, so the low 6 bits are dead; mix the meaningful bits.
func (c *nodeCache) shardOf(addr dmsim.GAddr) *cacheShard {
	h := (addr.Off >> 6) * 0x9e3779b97f4a7c15
	h ^= uint64(addr.MN) * 0xff51afd7ed558ccd
	return &c.shards[(h>>32)%uint64(len(c.shards))]
}

// get returns the cached node, promoting it, or nil.
func (c *nodeCache) get(addr dmsim.GAddr) *internalImage {
	s := c.shardOf(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[addr]
	if !ok {
		s.misses++
		return nil
	}
	s.hits++
	s.lru.MoveToFront(el)
	return el.Value.(*cacheSlot).node
}

// put inserts or replaces a node costing size bytes, evicting LRU
// entries from its shard as needed. A budget of 0 disables caching. It
// reports whether the cache took the node: one it took is the cache's
// from then on, one it declined is still the caller's to recycle.
func (c *nodeCache) put(addr dmsim.GAddr, n *internalImage, size int64) bool {
	s := c.shardOf(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budget <= 0 || size > s.budget {
		return false
	}
	if el, ok := s.items[addr]; ok {
		slot := el.Value.(*cacheSlot)
		s.used += size - slot.size
		slot.node, slot.size = n, size
		s.lru.MoveToFront(el)
	} else {
		el := s.lru.PushFront(&cacheSlot{addr: addr, node: n, size: size})
		s.items[addr] = el
		s.used += size
	}
	for s.used > s.budget {
		back := s.lru.Back()
		if back == nil {
			break
		}
		slot := back.Value.(*cacheSlot)
		s.lru.Remove(back)
		delete(s.items, slot.addr)
		s.used -= slot.size
	}
	return true
}

// invalidate drops a stale node (a sibling-based cache validation
// failure, §4.2.3).
func (c *nodeCache) invalidate(addr dmsim.GAddr) { c.invalidateCopy(addr, nil) }

// invalidateCopy is invalidate of one copy of the node: with im set it
// drops addr's entry only while the cache holds im, so a fresher copy
// put since stays.
func (c *nodeCache) invalidateCopy(addr dmsim.GAddr, im *internalImage) {
	s := c.shardOf(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[addr]; ok {
		slot := el.Value.(*cacheSlot)
		if im != nil && slot.node != im {
			return
		}
		s.lru.Remove(el)
		delete(s.items, addr)
		s.used -= slot.size
		s.invalidations++
	}
}

// CacheStats is a snapshot of cache behaviour and footprint, aggregated
// over all shards.
type CacheStats struct {
	Hits, Misses, Invalidations int64
	UsedBytes, BudgetBytes      int64
	Nodes                       int
}

func (c *nodeCache) stats() CacheStats {
	var st CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Invalidations += s.invalidations
		st.UsedBytes += s.used
		st.BudgetBytes += s.budget
		st.Nodes += len(s.items)
		s.mu.Unlock()
	}
	return st
}
