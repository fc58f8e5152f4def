package nodecache

import (
	"fmt"
	"math/rand"
	"testing"

	"chime/internal/dmsim"
)

type tnode struct{ id int }

// cachePair drives a Cache and the reference with the same calls and
// fails the test at the first call on which they disagree.
type cachePair struct {
	t     *testing.T
	c     *Cache[*tnode]
	ref   *refCache
	addrs []dmsim.GAddr
	vals  []*tnode
	sizes []int64
	step  int
}

// newCachePair builds a pair of budget bytes over stripes shards. Sizes
// are picked per shard budget so the shards run full and evict, with a
// few that no shard takes.
func newCachePair(t *testing.T, budget int64, stripes int) *cachePair {
	p := &cachePair{t: t, c: New[*tnode](budget, stripes), ref: newRefCache(budget, stripes)}
	for i := 0; i < 48; i++ {
		// 64-byte aligned, on three MNs, as node addresses are.
		p.addrs = append(p.addrs, dmsim.GAddr{MN: uint8(i % 3), Off: uint64(4096 + 64*i*(1+i%5))})
	}
	for i := 0; i < 4; i++ {
		p.vals = append(p.vals, &tnode{id: i})
	}
	per := budget / int64(len(p.c.shards))
	// SMART's per-kind node sizes, then fractions of a shard, then
	// oversize ones.
	p.sizes = []int64{136, 264, 520, 1032, 2056}
	for _, d := range []int64{17, 8, 5, 3, 2, 1} {
		p.sizes = append(p.sizes, max(1, per/d))
	}
	p.sizes = append(p.sizes, per+1, 4*per+1)
	return p
}

func (p *cachePair) get(a dmsim.GAddr) {
	p.t.Helper()
	p.step++
	if got, want := p.c.Get(a), p.ref.get(a); got != want {
		p.t.Fatalf("step %d: Get(%v) = %v, reference %v", p.step, a, got, want)
	}
}

func (p *cachePair) put(a dmsim.GAddr, v *tnode, size int64) {
	p.t.Helper()
	p.step++
	if got, want := p.c.Put(a, v, size), p.ref.put(a, v, size); got != want {
		p.t.Fatalf("step %d: Put(%v, size %d) = %v, reference %v", p.step, a, size, got, want)
	}
}

func (p *cachePair) drop(a dmsim.GAddr, v *tnode) {
	p.step++
	if v == nil {
		p.c.Drop(a)
	} else {
		p.c.DropCopy(a, v)
	}
	p.ref.invalidateCopy(a, v)
}

// op applies one call chosen by three small numbers.
func (p *cachePair) op(kind, a, b int) {
	p.t.Helper()
	addr := p.addrs[a%len(p.addrs)]
	v := p.vals[b%len(p.vals)]
	switch kind % 8 {
	case 0, 1, 2:
		p.get(addr)
	case 3, 4, 5:
		p.put(addr, v, p.sizes[b%len(p.sizes)])
	case 6:
		p.drop(addr, nil)
	default:
		p.drop(addr, v) // drops only if v is the cached copy
	}
}

// checkSame compares every shard's LRU order, node by node, its byte
// accounting and counters, and the aggregated stats.
func (p *cachePair) checkSame() {
	p.t.Helper()
	if len(p.c.shards) != len(p.ref.shards) {
		p.t.Fatalf("%d shards, reference %d", len(p.c.shards), len(p.ref.shards))
	}
	var want Stats
	for si := range p.ref.shards {
		s, r := &p.c.shards[si], &p.ref.shards[si]
		i, n := s.head, 0
		for el := r.lru.Front(); el != nil; el = el.Next() {
			rs := el.Value.(*refSlot)
			if i < 0 {
				p.t.Fatalf("step %d: shard %d ends after %d nodes, reference has %d", p.step, si, n, r.lru.Len())
			}
			e := &s.slab[i]
			if dmsim.UnpackGAddr(e.key) != rs.addr || e.v != rs.node || e.size != rs.size {
				p.t.Fatalf("step %d: shard %d LRU position %d = %v/%v/%d, reference %v/%v/%d",
					p.step, si, n, dmsim.UnpackGAddr(e.key), e.v, e.size, rs.addr, rs.node, rs.size)
			}
			if j, ok := s.index[e.key]; !ok || j != i {
				p.t.Fatalf("step %d: shard %d: %v indexed at %d, linked at %d", p.step, si, rs.addr, j, i)
			}
			if e.next >= 0 && s.slab[e.next].prev != i || e.next < 0 && s.tail != i {
				p.t.Fatalf("step %d: shard %d: broken back link at %d", p.step, si, i)
			}
			i, n = e.next, n+1
		}
		if i >= 0 || len(s.index) != n {
			p.t.Fatalf("step %d: shard %d holds %d indexed nodes, reference %d", p.step, si, len(s.index), n)
		}
		if s.used != r.used || s.budget != r.budget || s.hits != r.hits || s.misses != r.misses || s.invalidations != r.invalidations {
			p.t.Fatalf("step %d: shard %d used/budget/hits/misses/drops %d/%d/%d/%d/%d, reference %d/%d/%d/%d/%d",
				p.step, si, s.used, s.budget, s.hits, s.misses, s.invalidations,
				r.used, r.budget, r.hits, r.misses, r.invalidations)
		}
		free := 0
		for f := s.free; f >= 0; f = s.slab[f].next {
			free++
		}
		if free+n != len(s.slab) {
			p.t.Fatalf("step %d: shard %d slab of %d: %d linked, %d free", p.step, si, len(s.slab), n, free)
		}
		want.Hits += r.hits
		want.Misses += r.misses
		want.Invalidations += r.invalidations
		want.UsedBytes += r.used
		want.BudgetBytes += r.budget
		want.Nodes += r.lru.Len()
	}
	if got := p.c.Stats(); got != want {
		p.t.Fatalf("step %d: stats %+v, reference %+v", p.step, got, want)
	}
}

// cacheShapes are the budgets and stripe counts the oracle tests run:
// no budget, budgets under one node, Sherman's and SMART's one stripe,
// and CHIME's sixteen, collapsing to 1, 2 and 4 shards and not at all,
// with remainders that land on shard 0.
var cacheShapes = []struct {
	budget  int64
	stripes int
}{
	{0, 1}, {0, 16}, {100, 1}, {5000, 1}, {64<<10 + 37, 1},
	{5000, 16}, {2*MinShardBudget + 11, 16}, {5*MinShardBudget - 3, 16}, {16 * MinShardBudget, 16},
}

// TestNodeCacheVsReference drives Cache and the container/list cache it
// replaced with the same seeded random calls on every shape.
func TestNodeCacheVsReference(t *testing.T) {
	for i, sh := range cacheShapes {
		t.Run(fmt.Sprintf("budget%d_stripes%d", sh.budget, sh.stripes), func(t *testing.T) {
			p := newCachePair(t, sh.budget, sh.stripes)
			rng := rand.New(rand.NewSource(int64(i)))
			for step := 0; step < 20_000; step++ {
				a, b := rng.Intn(1<<20), rng.Intn(1<<20)
				if rng.Intn(3) > 0 {
					a %= 12 // a hot set, so gets hit and re-puts resize
				}
				p.op(rng.Intn(8), a, b)
				if step%7 == 0 {
					p.checkSame()
				}
			}
			p.checkSame()
		})
	}
}

// FuzzNodeCacheVsReference feeds byte-coded call sequences to Cache and
// the reference; three bytes make one call (see op), and the first
// argument picks the shape.
func FuzzNodeCacheVsReference(f *testing.F) {
	f.Add(uint8(3), []byte("\x03\x00\x05\x03\x01\x06\x00\x00\x00\x07\x01\x00\x06\x01\x00"))
	f.Add(uint8(7), []byte("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"))
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		sh := cacheShapes[int(shape)%len(cacheShapes)]
		p := newCachePair(t, sh.budget, sh.stripes)
		for ; len(data) >= 3; data = data[3:] {
			p.op(int(data[0]), int(data[1]), int(data[2]))
			p.checkSame()
		}
	})
}

// TestPutThatEvictsAllocatesNothing: once a shard is full, a put of a new
// node reuses the victim's slot, so it allocates nothing (the list cache
// allocated a list element and a slot per put).
func TestPutThatEvictsAllocatesNothing(t *testing.T) {
	for _, stripes := range []int{1, 16} {
		c := New[*tnode](2<<20, stripes)
		v := &tnode{}
		addr := func(i int) dmsim.GAddr { return dmsim.GAddr{Off: uint64(64 * i)} }
		i := 0
		for ; c.Stats().UsedBytes < 2<<20; i++ {
			c.Put(addr(i), v, 1024)
		}
		if n := testing.AllocsPerRun(1000, func() {
			c.Put(addr(i), v, 1024)
			i++
		}); n != 0 {
			t.Errorf("%d stripes: %v allocs per evicting put, want 0", stripes, n)
		}
		if st := c.Stats(); st.UsedBytes > st.BudgetBytes || st.Nodes != 2048 {
			t.Fatalf("%d stripes: %+v, want 2048 nodes", stripes, st)
		}
	}
}

var nodeSink *tnode

// BenchmarkNodeCacheGet: a cache hit at the fit budget (2 MiB), on a
// c_fit-shaped upper level — a root and 49 level-1 nodes of 1 KiB — with
// CHIME's 16 stripes and with Sherman's and SMART's one. `make
// bench-core` runs it at -cpu 1,2.
func BenchmarkNodeCacheGet(b *testing.B) {
	for _, bc := range []struct {
		name    string
		stripes int
	}{{"chime16", 16}, {"sherman1", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			c := New[*tnode](2<<20, bc.stripes)
			addrs := make([]dmsim.GAddr, 50)
			for i := range addrs {
				addrs[i] = dmsim.GAddr{Off: uint64(1<<20 + 1024*i)}
				c.Put(addrs[i], &tnode{id: i}, 1024)
			}
			rng := rand.New(rand.NewSource(1))
			// A descent's two levels: the root, then a level-1 node.
			order := make([]int, 1024)
			for i := 1; i < len(order); i += 2 {
				order[i] = 1 + rng.Intn(len(addrs)-1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nodeSink = c.Get(addrs[order[i&1023]])
			}
		})
	}
}

func TestCacheShardDistribution(t *testing.T) {
	const stripes = 16
	c := New[*tnode](1<<20, stripes)
	seen := map[*shard[*tnode]]int{}
	for i := 0; i < 1024; i++ {
		seen[c.shardOf(dmsim.GAddr{Off: uint64(64 * i)})]++
	}
	if len(seen) < stripes/2 {
		t.Fatalf("sequential addresses hit only %d of %d shards", len(seen), stripes)
	}
	for s, n := range seen {
		if n > 1024/2 {
			t.Fatalf("shard %p absorbed %d of 1024 addresses", s, n)
		}
	}
}
