package sherman

import (
	"encoding/binary"
	"runtime"
	"sync"

	"chime/internal/dmsim"
	"chime/internal/offroute"
)

// MN-side offload program (dmsim offload verbs), co-designed with
// Sherman's remote layout. Sherman leaves keep fence keys (no
// sibling-based validation), so the program's leaf chain check is the
// same fenceLow/fenceHi/sibling walk the one-sided client does — run
// against MN-local memory through the metered MNCtx that feeds the
// bounded MN CPU. Anything that leaves the MN (children or indirect KV
// blocks on other MNs) or exceeds the small local retry budgets yields
// a fallback verdict and the client redoes the op one-sided.
const (
	mnTornRetries = 64
	mnLockRetries = 64
	mnChainHops   = 128
)

// mnProgram implements dmsim.MNProgram for one Sherman tree. Stateless
// beyond the shared Index and a pool of per-invocation scratch, so one
// value serves every MN and client.
type mnProgram struct {
	ix *Index

	scratch sync.Pool // of *mnScratch
}

// mnScratch is what one invocation of the program reads nodes into and
// stages its output in. Each image holds one node at a time: the leaf
// image is good until the next leaf is read, the inner one until the
// next internal node is.
type mnScratch struct {
	leaf, inner *image
	slots       []offroute.ScanSlot // one leaf's in-range entries
	block       []byte              // indirect: the KV block being read
	rec         []byte              // the [8B key][value] record being emitted
	slotSort    offroute.SortScratch
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

// readNode fetches and validates a whole node through the metered view,
// into the scratch image of its layout. A nil image carries a fallback
// status (Retry when the torn-read budget ran out).
func (p *mnProgram) readNode(ctx *dmsim.MNCtx, s *mnScratch, lay *layout, addr dmsim.GAddr) (*image, header, dmsim.OffloadStatus) {
	slot := &s.inner
	if lay.leaf {
		slot = &s.leaf
	}
	*slot = lay.recycle(*slot)
	im := *slot
	for try := 0; try < mnTornRetries; try++ {
		if !ctx.Read(addr.Add(lineSize), im.body()) {
			return nil, header{}, dmsim.OffloadCrossMN
		}
		if im.check() != nil {
			runtime.Gosched()
			continue
		}
		return im, im.header(), dmsim.OffloadOK
	}
	return nil, header{}, dmsim.OffloadRetry
}

// descend walks from the super block to the leaf covering key. A zero
// status with a nil address requests a restart from the caller.
func (p *mnProgram) descend(ctx *dmsim.MNCtx, s *mnScratch, key uint64) (dmsim.GAddr, dmsim.OffloadStatus, bool) {
	var b [8]byte
	if !ctx.Read(p.ix.super, b[:]) {
		return dmsim.NilGAddr, dmsim.OffloadCrossMN, false
	}
	cur, level := unpackSuper(binary.LittleEndian.Uint64(b[:]))
	if level == 0 {
		return cur, dmsim.OffloadOK, false
	}
	for hop := 0; hop < mnChainHops; hop++ {
		im, hdr, st := p.readNode(ctx, s, p.ix.inner, cur)
		if im == nil {
			return dmsim.NilGAddr, st, false
		}
		if !hdr.valid {
			return dmsim.NilGAddr, 0, true // restart
		}
		if key < hdr.fenceLow {
			return dmsim.NilGAddr, 0, true
		}
		if !hdr.fenceInf && key >= hdr.fenceHi {
			if hdr.sibling.IsNil() {
				return dmsim.NilGAddr, 0, true
			}
			cur = hdr.sibling
			continue
		}
		child := im.childFor(hdr, key)
		if child.IsNil() {
			return dmsim.NilGAddr, 0, true
		}
		if hdr.level == 1 {
			return child, dmsim.OffloadOK, false
		}
		cur = child
	}
	return dmsim.NilGAddr, dmsim.OffloadRetry, false
}

// resolve turns stored entry bytes into the value to emit: themselves
// when inline, the KV block they point to (read into the scratch block)
// when indirect. restart=true requests a fresh descent.
func (p *mnProgram) resolve(ctx *dmsim.MNCtx, s *mnScratch, key uint64, stored []byte) (val []byte, st dmsim.OffloadStatus, restart bool) {
	if !p.ix.opts.Indirect {
		return stored, dmsim.OffloadOK, false
	}
	ptr := ptrOf(stored)
	if ptr.IsNil() {
		return nil, 0, true
	}
	if !ctx.Read(ptr, s.block) {
		return nil, dmsim.OffloadCrossMN, false
	}
	if binary.LittleEndian.Uint64(s.block[:8]) != key {
		return nil, 0, true
	}
	return s.block[8:], dmsim.OffloadOK, false
}

// Search: descend + whole-leaf probe, MN-local.
func (p *mnProgram) Search(ctx *dmsim.MNCtx, key, arg uint64) dmsim.OffloadStatus {
	s := p.acquire()
	defer p.release(s)
	for attempt := 0; attempt < mnTornRetries; attempt++ {
		leaf, st, restart := p.descend(ctx, s, key)
		if restart {
			runtime.Gosched()
			continue
		}
		if st != dmsim.OffloadOK {
			return st
		}
		st, restart = p.searchChain(ctx, s, leaf, key)
		if restart {
			runtime.Gosched()
			continue
		}
		return st
	}
	return dmsim.OffloadRetry
}

func (p *mnProgram) searchChain(ctx *dmsim.MNCtx, s *mnScratch, leaf dmsim.GAddr, key uint64) (dmsim.OffloadStatus, bool) {
	for hops := 0; hops < mnChainHops; hops++ {
		im, hdr, st := p.readNode(ctx, s, p.ix.leaf, leaf)
		if im == nil {
			return st, false
		}
		if !hdr.valid || key < hdr.fenceLow {
			return 0, true
		}
		if !hdr.fenceInf && key >= hdr.fenceHi {
			if hdr.sibling.IsNil() {
				return 0, true
			}
			leaf = hdr.sibling
			continue
		}
		slot, _ := im.find(key)
		if slot < 0 {
			return dmsim.OffloadNotFound, false
		}
		val, st, restart := p.resolve(ctx, s, key, im.value(slot))
		if restart || st != dmsim.OffloadOK {
			return st, restart
		}
		if !ctx.Emit(val) {
			return dmsim.OffloadRetry, false
		}
		return dmsim.OffloadOK, false
	}
	return dmsim.OffloadRetry, false
}

// lockNode takes the node's lock bit by MN-local CAS. Sherman's lock
// word carries no payload (lease mode is gated off before offload), so
// compare-and-swap of the single bit interoperates with the client's
// identical CAS and its write-zero release.
func (p *mnProgram) lockNode(ctx *dmsim.MNCtx, addr dmsim.GAddr) dmsim.OffloadStatus {
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

func (p *mnProgram) unlockNode(ctx *dmsim.MNCtx, addr dmsim.GAddr) {
	ctx.MaskedCAS(addr, 1, 0, 1, 1)
}

// Update: in-place entry value swap under the node lock. Indirect values
// (client-side allocation) and lease locks are gated off client-side.
func (p *mnProgram) Update(ctx *dmsim.MNCtx, key, arg uint64, val []byte) dmsim.OffloadStatus {
	o := p.ix.opts
	if o.Indirect || o.LeaseLocks {
		return dmsim.OffloadUnsupported
	}
	if len(val) != p.ix.leaf.valSize {
		return dmsim.OffloadUnsupported
	}
	s := p.acquire()
	defer p.release(s)
	for attempt := 0; attempt < mnTornRetries; attempt++ {
		leaf, st, restart := p.descend(ctx, s, key)
		if restart {
			runtime.Gosched()
			continue
		}
		if st != dmsim.OffloadOK {
			return st
		}
		st, restart = p.updateInChain(ctx, s, leaf, key, val)
		if restart {
			runtime.Gosched()
			continue
		}
		return st
	}
	return dmsim.OffloadRetry
}

func (p *mnProgram) updateInChain(ctx *dmsim.MNCtx, s *mnScratch, leaf dmsim.GAddr, key uint64, val []byte) (dmsim.OffloadStatus, bool) {
	for hops := 0; hops < mnChainHops; hops++ {
		if st := p.lockNode(ctx, leaf); st != dmsim.OffloadOK {
			return st, false
		}
		im, hdr, st := p.readNode(ctx, s, p.ix.leaf, leaf)
		if im == nil {
			p.unlockNode(ctx, leaf)
			return st, false
		}
		if !hdr.valid || key < hdr.fenceLow {
			p.unlockNode(ctx, leaf)
			return 0, true
		}
		if !hdr.fenceInf && key >= hdr.fenceHi {
			next := hdr.sibling
			p.unlockNode(ctx, leaf)
			if next.IsNil() {
				return 0, true
			}
			leaf = next
			continue
		}
		slot, _ := im.find(key)
		if slot < 0 {
			p.unlockNode(ctx, leaf)
			return dmsim.OffloadNotFound, false
		}
		im.setEntry(slot, key, val, true)
		ok := ctx.Write(leaf.Add(uint64(im.lay.entryCells[slot].Off)), im.cell(slot))
		p.unlockNode(ctx, leaf)
		if !ok {
			return dmsim.OffloadCrossMN, false
		}
		return dmsim.OffloadOK, false
	}
	return dmsim.OffloadRetry, false
}

// Scan: walk the leaf chain MN-side, emitting sorted [8B key][value]
// records. Restarts are only honored before the first emitted record.
func (p *mnProgram) Scan(ctx *dmsim.MNCtx, start, arg uint64, limit int) dmsim.OffloadStatus {
	if limit <= 0 {
		return dmsim.OffloadOK
	}
	s := p.acquire()
	defer p.release(s)
	for attempt := 0; attempt < mnTornRetries; attempt++ {
		leaf, st, restart := p.descend(ctx, s, start)
		if !restart && st == dmsim.OffloadOK {
			st, restart = p.scanChain(ctx, s, leaf, start, limit)
		}
		if !restart {
			return st
		}
		runtime.Gosched()
	}
	return dmsim.OffloadRetry
}

// scanChain emits leaf after leaf from `leaf` on, following sibling
// pointers, until limit records are out or the chain ends. An optimistic
// conflict asks for a restart while nothing has been emitted (emitted
// bytes cannot be retracted) and for the one-sided fallback after.
func (p *mnProgram) scanChain(ctx *dmsim.MNCtx, s *mnScratch, leaf dmsim.GAddr, start uint64, limit int) (dmsim.OffloadStatus, bool) {
	emitted := 0
	conflict := func() (dmsim.OffloadStatus, bool) { return dmsim.OffloadRetry, emitted == 0 }
	for hops := 0; hops < mnChainHops; hops++ {
		im, hdr, st := p.readNode(ctx, s, p.ix.leaf, leaf)
		if im == nil {
			if st == dmsim.OffloadRetry {
				return conflict()
			}
			return st, false
		}
		if !hdr.valid {
			return conflict()
		}
		s.slots = im.occupied(s.slots[:0], start)
		offroute.SortSlots(s.slots, &s.slotSort)
		for _, sl := range s.slots {
			val, st, restart := p.resolve(ctx, s, sl.Key, im.value(sl.Idx))
			if restart {
				return conflict()
			}
			if st != dmsim.OffloadOK {
				return st, false
			}
			binary.LittleEndian.PutUint64(s.rec[:8], sl.Key)
			copy(s.rec[8:], val)
			if !ctx.Emit(s.rec) {
				return dmsim.OffloadOK, false // response buffer full: done
			}
			if emitted++; emitted >= limit {
				return dmsim.OffloadOK, false
			}
		}
		if hdr.sibling.IsNil() {
			return dmsim.OffloadOK, false
		}
		leaf = hdr.sibling
	}
	return conflict() // chain budget exhausted
}
