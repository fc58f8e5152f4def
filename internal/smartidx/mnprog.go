package smartidx

import (
	"encoding/binary"
	"runtime"
	"sync"

	"chime/internal/dmsim"
)

// MN-side offload program (dmsim offload verbs), co-designed with
// SMART's remote layout. SMART is the KV-discrete design: a point query
// is a radix descent plus one tiny leaf READ, and a scan is one leaf
// READ per result — exactly the IOPS-bound shape that benefits from
// running at the MN. Searches and scans offload; structural writes
// (slot installs, expansions, prefix splits) need client-side
// allocation, so Update returns Unsupported and the client gates writes
// one-sided before the router ever sees them.
//
// Leaf blocks are chunk-allocated on the inserting client's home MN, so
// with several MNs a descent routinely crosses off the program's MN —
// the metered view reports that as a failed access and the program
// yields a CrossMN fallback verdict.
const (
	mnTornRetries = 64
	mnChainHops   = 10 // radix paths are at most 8 levels deep
)

// mnProgram implements dmsim.MNProgram for one SMART tree. Stateless
// beyond the shared Index and a pool of per-invocation scratch, so one
// value serves every MN and client.
type mnProgram struct {
	ix *Index

	scratch sync.Pool // of *mnScratch
}

// mnScratch is what one invocation of the program reads into: the nodes
// of each level of its walk (a scan's recursion keeps one per level; a
// search reads them all into level 0, one at a time) and a leaf block.
type mnScratch struct {
	levels []nodeSet
	leaf   []byte
}

// acquire takes a scratch for one invocation; the caller defers release.
func (p *mnProgram) acquire() *mnScratch {
	if s, _ := p.scratch.Get().(*mnScratch); s != nil {
		return s
	}
	return &mnScratch{levels: make([]nodeSet, 1), leaf: make([]byte, p.ix.leafSz)}
}

func (p *mnProgram) release(s *mnScratch) { p.scratch.Put(s) }

// readNode fetches a node through the metered view into set. A nil node
// carries the fallback status.
func (p *mnProgram) readNode(ctx *dmsim.MNCtx, set *nodeSet, addr dmsim.GAddr, kind int) (*node, dmsim.OffloadStatus) {
	n := set.take(kind)
	if !ctx.Read(addr, n.img) {
		return nil, dmsim.OffloadCrossMN
	}
	n.arrived(addr)
	return n, dmsim.OffloadOK
}

// Search: radix descent plus leaf read, MN-local. Invalidated nodes are
// observed fresh on every read (there is no MN-side cache), so a
// restart simply re-descends from the root.
func (p *mnProgram) Search(ctx *dmsim.MNCtx, key, arg uint64) dmsim.OffloadStatus {
	s := p.acquire()
	defer p.release(s)
	kb := keyBytes(key)
	for attempt := 0; attempt < mnTornRetries; attempt++ {
		restart := false
		cur, kind := p.ix.root, kindN256
		var leafAddr dmsim.GAddr
		found := false
		for hop := 0; hop < mnChainHops; hop++ {
			n, st := p.readNode(ctx, &s.levels[0], cur, kind)
			if n == nil {
				return st
			}
			if !n.hdr.valid {
				restart = true
				break
			}
			if prefixMatch(n.hdr, kb) < n.hdr.prefixLen {
				return dmsim.OffloadNotFound
			}
			d := n.hdr.depth + n.hdr.prefixLen
			if d >= 8 {
				return dmsim.OffloadNotFound
			}
			child, _ := n.childAt(kb[d])
			if child == 0 {
				return dmsim.OffloadNotFound
			}
			addr, leaf, ckind := unpackChild(child)
			if leaf {
				leafAddr, found = addr, true
				break
			}
			cur, kind = addr, ckind
		}
		if restart {
			runtime.Gosched()
			continue
		}
		if !found {
			return dmsim.OffloadRetry
		}
		if !ctx.Read(leafAddr, s.leaf) {
			return dmsim.OffloadCrossMN
		}
		if binary.LittleEndian.Uint64(s.leaf[:8]) != key {
			// Stale slot: a concurrent structural change moved the key.
			runtime.Gosched()
			continue
		}
		if !ctx.Emit(s.leaf[8:]) {
			return dmsim.OffloadRetry
		}
		return dmsim.OffloadOK
	}
	return dmsim.OffloadRetry
}

// Update: ART writes allocate new leaf blocks (and possibly nodes)
// client-side; the wrapper gates them off before routing.
func (p *mnProgram) Update(ctx *dmsim.MNCtx, key, arg uint64, val []byte) dmsim.OffloadStatus {
	return dmsim.OffloadUnsupported
}

// Scan: in-order radix walk MN-side, one metered leaf read per emitted
// record instead of one network round trip each. Restarts are only
// honored before the first emitted record.
func (p *mnProgram) Scan(ctx *dmsim.MNCtx, start, arg uint64, limit int) dmsim.OffloadStatus {
	if limit <= 0 {
		return dmsim.OffloadOK
	}
	s := p.acquire()
	defer p.release(s)
	for attempt := 0; attempt < mnTornRetries; attempt++ {
		emitted := 0
		var acc [8]byte
		st, restart := p.scanNode(ctx, s, 0, nodeRef{p.ix.root, kindN256}, acc, start, limit, &emitted)
		if restart {
			if emitted > 0 {
				return dmsim.OffloadRetry
			}
			runtime.Gosched()
			continue
		}
		return st
	}
	return dmsim.OffloadRetry
}

// scanNode emits the in-range leaves under the node at, level levels
// below the root, in key order; the node is read into that level's set,
// so it outlives the recursion into its children.
func (p *mnProgram) scanNode(ctx *dmsim.MNCtx, s *mnScratch, level int, at nodeRef, acc [8]byte, start uint64, limit int, emitted *int) (dmsim.OffloadStatus, bool) {
	if *emitted >= limit {
		return dmsim.OffloadOK, false
	}
	if level == len(s.levels) {
		s.levels = append(s.levels, nodeSet{})
	}
	n, st := p.readNode(ctx, &s.levels[level], at.addr, at.kind)
	if n == nil {
		return st, false
	}
	if !n.hdr.valid {
		return 0, true
	}
	copy(acc[n.hdr.depth:], n.hdr.prefix[:n.hdr.prefixLen])
	d := n.hdr.depth + n.hdr.prefixLen
	rec := s.leaf
	for kb, child := n.next(0); kb < 256; kb, child = n.next(kb + 1) {
		if *emitted >= limit {
			return dmsim.OffloadOK, false
		}
		if d < 8 {
			acc[d] = byte(kb)
			if subtreeMax(acc, d+1) < start {
				continue // whole subtree below the scan start
			}
		}
		caddr, leaf, ckind := unpackChild(child)
		if leaf {
			// A leaf block is [8B key][value] — already the record
			// format the scan verb emits.
			if !ctx.Read(caddr, rec) {
				return dmsim.OffloadCrossMN, false
			}
			if binary.LittleEndian.Uint64(rec[:8]) >= start {
				if !ctx.Emit(rec) {
					*emitted = limit
					return dmsim.OffloadOK, false
				}
				*emitted++
			}
			continue
		}
		st, restart := p.scanNode(ctx, s, level+1, nodeRef{caddr, ckind}, acc, start, limit, emitted)
		if restart || st != dmsim.OffloadOK {
			return st, restart
		}
	}
	return dmsim.OffloadOK, false
}
