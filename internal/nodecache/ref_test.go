package nodecache

import (
	"container/list"
	"sync"

	"chime/internal/dmsim"
)

// refCache is CHIME's node cache as it was before this package: striped
// shards, each a container/list LRU with a map of list elements. It is
// kept verbatim (renamed, values of the test's type, the stripe count a
// parameter, as Sherman and SMART ran the same cache on one stripe) as
// the oracle the differential and fuzz tests hold Cache to: same hits
// and misses, same contents, same LRU order and so the same victims.
type refCache struct {
	shards []refShard
}

type refShard struct {
	mu     sync.Mutex
	budget int64
	used   int64
	lru    *list.List // front = most recent; values are *refSlot
	items  map[dmsim.GAddr]*list.Element

	hits, misses, invalidations int64
}

type refSlot struct {
	addr dmsim.GAddr
	node *tnode
	size int64
}

func newRefCache(budget int64, stripes int) *refCache {
	n := stripes
	for n > 1 && budget/int64(n) < MinShardBudget {
		n /= 2
	}
	c := &refCache{shards: make([]refShard, n)}
	// Split the budget across shards; remainder bytes go to shard 0 so
	// the total is preserved exactly.
	per := budget / int64(n)
	for i := range c.shards {
		b := per
		if i == 0 {
			b += budget - per*int64(n)
		}
		c.shards[i] = refShard{
			budget: b,
			lru:    list.New(),
			items:  make(map[dmsim.GAddr]*list.Element),
		}
	}
	return c
}

// shardOf maps a node address to its shard. Node addresses are 64-byte
// aligned, so the low 6 bits are dead; mix the meaningful bits.
func (c *refCache) shardOf(addr dmsim.GAddr) *refShard {
	h := (addr.Off >> 6) * 0x9e3779b97f4a7c15
	h ^= uint64(addr.MN) * 0xff51afd7ed558ccd
	return &c.shards[(h>>32)%uint64(len(c.shards))]
}

// get returns the cached node, promoting it, or nil.
func (c *refCache) get(addr dmsim.GAddr) *tnode {
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
	return el.Value.(*refSlot).node
}

// put inserts or replaces a node costing size bytes, evicting LRU
// entries from its shard as needed. A budget of 0 disables caching. It
// reports whether the cache took the node.
func (c *refCache) put(addr dmsim.GAddr, n *tnode, size int64) bool {
	s := c.shardOf(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budget <= 0 || size > s.budget {
		return false
	}
	if el, ok := s.items[addr]; ok {
		slot := el.Value.(*refSlot)
		s.used += size - slot.size
		slot.node, slot.size = n, size
		s.lru.MoveToFront(el)
	} else {
		el := s.lru.PushFront(&refSlot{addr: addr, node: n, size: size})
		s.items[addr] = el
		s.used += size
	}
	for s.used > s.budget {
		back := s.lru.Back()
		if back == nil {
			break
		}
		slot := back.Value.(*refSlot)
		s.lru.Remove(back)
		delete(s.items, slot.addr)
		s.used -= slot.size
	}
	return true
}

// invalidateCopy drops addr's entry; with n set, only while the cache
// holds n.
func (c *refCache) invalidateCopy(addr dmsim.GAddr, n *tnode) {
	s := c.shardOf(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[addr]; ok {
		slot := el.Value.(*refSlot)
		if n != nil && slot.node != n {
			return
		}
		s.lru.Remove(el)
		delete(s.items, addr)
		s.used -= slot.size
		s.invalidations++
	}
}
