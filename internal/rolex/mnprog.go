package rolex

import (
	"encoding/binary"
	"runtime"
	"sync"

	"chime/internal/dmsim"
	"chime/internal/offroute"
)

// MN-side offload program (dmsim offload verbs), co-designed with
// ROLEX's learned routing: the PLR model and fence keys live on the CN,
// so the client routes first and ships the predicted leaf group as the
// verb's arg — the program never re-runs the model, it just probes the
// group (main leaf, overflow buddy, chain) MN-locally. The group array
// is one contiguous allocation on the program's MN; only chained
// overflow leaves and indirect KV blocks (chunk-allocated on the
// inserting client's home MN) can cross MNs, which the metered view
// reports and the program converts into a CrossMN fallback verdict.
const (
	mnTornRetries = 64
	mnLockRetries = 64
	mnChainHops   = 128
)

// mnProgram implements dmsim.MNProgram for one ROLEX index. Stateless
// beyond the shared Index and a pool of per-invocation scratch, so one
// value serves every MN and client.
type mnProgram struct {
	ix *Index

	scratch sync.Pool // of *mnScratch
}

// mnScratch is what one invocation of the program reads leaves into and
// stages its output in.
type mnScratch struct {
	group leafSet
	slots []offroute.ScanSlot // one group's in-range entries
	block []byte              // indirect: the KV block being read
	rec   []byte              // the [8B key][value] record being emitted
	sort  offroute.SortScratch
}

// acquire takes a scratch for one invocation; the caller defers release.
func (p *mnProgram) acquire() *mnScratch {
	if s, _ := p.scratch.Get().(*mnScratch); s != nil {
		return s
	}
	vs := p.ix.opts.ValueSize
	return &mnScratch{block: make([]byte, 8+vs), rec: make([]byte, 8+vs)}
}

func (p *mnProgram) release(s *mnScratch) { p.scratch.Put(s) }

// readLeaf fetches one leaf through the metered view as the next leaf of
// the scratch group, retrying torn reads against a small budget. A nil
// image carries a fallback status.
func (p *mnProgram) readLeaf(ctx *dmsim.MNCtx, s *mnScratch, addr dmsim.GAddr) (*image, dmsim.OffloadStatus) {
	im := s.group.next(p.ix.lay, addr)
	for try := 0; try < mnTornRetries; try++ {
		if !ctx.Read(addr.Add(lineSize), im.body()) {
			return nil, dmsim.OffloadCrossMN
		}
		if im.check() != nil {
			runtime.Gosched()
			continue
		}
		return im, dmsim.OffloadOK
	}
	return nil, dmsim.OffloadRetry
}

// readWholeGroup fetches every leaf of group g — main, buddy, the
// overflow chain — into s.group.leaves.
func (p *mnProgram) readWholeGroup(ctx *dmsim.MNCtx, s *mnScratch, g int) dmsim.OffloadStatus {
	s.group.reset()
	if im, st := p.readLeaf(ctx, s, p.ix.groupMain(g)); im == nil {
		return st
	}
	buddy, st := p.readLeaf(ctx, s, p.ix.groupBuddy(g))
	if buddy == nil {
		return st
	}
	chain := buddy.chain()
	for hops := 0; !chain.IsNil() && hops < mnChainHops; hops++ {
		im, st := p.readLeaf(ctx, s, chain)
		if im == nil {
			return st
		}
		chain = im.chain()
	}
	return dmsim.OffloadOK
}

// resolve turns stored entry bytes into the value to emit: themselves
// when inline, the KV block they point to (read into the scratch block)
// when indirect. unlinked is the status for a nil block pointer.
func (p *mnProgram) resolve(ctx *dmsim.MNCtx, s *mnScratch, key uint64, stored []byte, unlinked dmsim.OffloadStatus) ([]byte, dmsim.OffloadStatus) {
	if !p.ix.opts.Indirect {
		return stored, dmsim.OffloadOK
	}
	ptr := ptrOf(stored)
	if ptr.IsNil() {
		return nil, unlinked
	}
	if !ctx.Read(ptr, s.block) {
		return nil, dmsim.OffloadCrossMN
	}
	if binary.LittleEndian.Uint64(s.block[:8]) != key {
		return nil, dmsim.OffloadRetry
	}
	return s.block[8:], dmsim.OffloadOK
}

// Search: probe the routed group's main leaf, buddy, then the overflow
// chain. Group membership never changes after routing (ROLEX's
// data-movement constraint), so there is no descent to restart.
func (p *mnProgram) Search(ctx *dmsim.MNCtx, key, arg uint64) dmsim.OffloadStatus {
	g := int(arg)
	if g < 0 || g >= p.ix.numGroups {
		return dmsim.OffloadUnsupported
	}
	s := p.acquire()
	defer p.release(s)
	// The main leaf, then the buddy, then the chain the buddy heads: one
	// leaf at a time, stopping at the first that holds the key.
	next := p.ix.groupMain(g)
	for leaves := 0; !next.IsNil() && leaves < 2+mnChainHops; leaves++ {
		s.group.reset()
		im, st := p.readLeaf(ctx, s, next)
		if im == nil {
			return st
		}
		if slot, _ := im.find(key); slot >= 0 {
			val, st := p.resolve(ctx, s, key, im.value(slot), dmsim.OffloadNotFound)
			if st == dmsim.OffloadOK && !ctx.Emit(val) {
				st = dmsim.OffloadRetry
			}
			return st
		}
		if next = im.chain(); leaves == 0 {
			next = p.ix.groupBuddy(g)
		}
	}
	return dmsim.OffloadNotFound
}

// lockGroup takes the group's lock word by MN-local CAS. The word
// carries no payload outside lease mode (gated off client-side), so the
// single-bit compare-and-swap interoperates with the client's CAS
// acquire and write-zero release; while a CN-local handover chain holds
// the lock the word stays set and the budget here expires into a
// fallback.
func (p *mnProgram) lockGroup(ctx *dmsim.MNCtx, addr dmsim.GAddr) dmsim.OffloadStatus {
	for try := 0; try < mnLockRetries; try++ {
		_, swapped, ok := ctx.MaskedCAS(addr, 0, 1, 1, 1)
		if !ok {
			return dmsim.OffloadCrossMN
		}
		if swapped {
			return dmsim.OffloadOK
		}
		runtime.Gosched()
	}
	return dmsim.OffloadRetry
}

func (p *mnProgram) unlockGroup(ctx *dmsim.MNCtx, addr dmsim.GAddr) {
	ctx.MaskedCAS(addr, 1, 0, 1, 1)
}

// Update: in-place value swap under the group lock. The upsert keeps
// the slot's hopscotch bitmap (it tracks keys homed at the slot, not
// the stored key), matching the one-sided writer. Indirect values need
// client-side allocation and lease locks carry the holder's identity —
// both are gated off client-side.
func (p *mnProgram) Update(ctx *dmsim.MNCtx, key, arg uint64, val []byte) dmsim.OffloadStatus {
	o := p.ix.opts
	if o.Indirect || o.LeaseLocks {
		return dmsim.OffloadUnsupported
	}
	lay := p.ix.lay
	if len(val) != lay.valSize {
		return dmsim.OffloadUnsupported
	}
	g := int(arg)
	if g < 0 || g >= p.ix.numGroups {
		return dmsim.OffloadUnsupported
	}
	lockAddr := p.ix.groupMain(g)
	if st := p.lockGroup(ctx, lockAddr); st != dmsim.OffloadOK {
		return st
	}
	s := p.acquire()
	defer p.release(s)
	st := p.updateLocked(ctx, s, g, key, val)
	p.unlockGroup(ctx, lockAddr)
	return st
}

func (p *mnProgram) updateLocked(ctx *dmsim.MNCtx, s *mnScratch, g int, key uint64, val []byte) dmsim.OffloadStatus {
	if st := p.readWholeGroup(ctx, s, g); st != dmsim.OffloadOK {
		return st
	}
	for _, lf := range s.group.leaves {
		if slot, _ := lf.im.find(key); slot >= 0 {
			lf.im.put(slot, key, val, true)
			if !ctx.Write(lf.addr.Add(uint64(p.ix.lay.entryCells[slot].Off)), lf.im.cell(slot)) {
				return dmsim.OffloadCrossMN
			}
			return dmsim.OffloadOK
		}
	}
	return dmsim.OffloadNotFound
}

// Scan: read consecutive groups from the routed start group, sorting
// each group's main+buddy+chain batch and emitting [8B key][value]
// records until the limit fills.
func (p *mnProgram) Scan(ctx *dmsim.MNCtx, start, arg uint64, limit int) dmsim.OffloadStatus {
	if limit <= 0 {
		return dmsim.OffloadOK
	}
	g := int(arg)
	if g < 0 || g >= p.ix.numGroups {
		return dmsim.OffloadUnsupported
	}
	lay := p.ix.lay
	s := p.acquire()
	defer p.release(s)
	emitted := 0
	for ; g < p.ix.numGroups; g++ {
		if st := p.readWholeGroup(ctx, s, g); st != dmsim.OffloadOK {
			return st
		}
		s.slots = s.slots[:0]
		for n, lf := range s.group.leaves {
			s.slots = lf.im.inRange(s.slots, start, n*lay.span)
		}
		offroute.SortSlots(s.slots, &s.sort)
		for _, sl := range s.slots {
			stored := s.group.leaves[sl.Idx/lay.span].im.value(sl.Idx % lay.span)
			val, st := p.resolve(ctx, s, sl.Key, stored, dmsim.OffloadRetry)
			if st != dmsim.OffloadOK {
				return st
			}
			binary.LittleEndian.PutUint64(s.rec[:8], sl.Key)
			copy(s.rec[8:], val)
			if !ctx.Emit(s.rec) {
				return dmsim.OffloadOK
			}
			if emitted++; emitted >= limit {
				return dmsim.OffloadOK
			}
		}
	}
	return dmsim.OffloadOK
}
