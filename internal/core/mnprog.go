package core

import (
	"encoding/binary"
	"runtime"
	"sync"

	"chime/internal/dmsim"
	"chime/internal/offroute"
)

// MN-side offload program (dmsim offload verbs). The program is
// co-designed with the remote layout in this package: it reuses the same
// image codecs and validation machinery the one-sided client paths use,
// but runs them against the MN's local memory through a metered MNCtx —
// every byte it touches feeds the bounded MN CPU's service time
// (dmsim/mncpu.go), so offload is never free.
//
// MN cores only reach their own memory, so the program handles exactly
// the ops that stay on one MN and returns a fallback verdict for
// everything else (cross-MN children, indirect blocks placed on other
// MNs, contended locks, torn reads past a small local budget); the
// client then redoes the op with one-sided verbs, which reach
// everything. The retry budgets are deliberately tiny compared to the
// client's maxRetries: an MN-local retry costs no round trip, but the
// program executes inside the issuing client's turn on its scheduler
// lane, so spinning on a lock held by a same-lane peer cannot make
// progress — give up early and let the one-sided fallback path (which
// parks at its next verb) absorb the contention.
const (
	// mnTornRetries bounds MN-local optimistic re-reads of a torn node.
	mnTornRetries = 64

	// mnLockRetries bounds MN-side leaf lock acquisition attempts.
	mnLockRetries = 64

	// mnChainHops bounds sibling chases and descent hops.
	mnChainHops = 128
)

// mnProgram implements dmsim.MNProgram for one CHIME tree. Stateless
// beyond the shared Index and a pool of scratch images, so one value
// serves every MN and client.
type mnProgram struct {
	ix *Index

	// nodes recycles internal-node images across descents, and scans
	// the offloaded scans' state: the program has no client whose free
	// list or scratch it could use.
	nodes sync.Pool // of *internalImage
	scans sync.Pool // of *mnScanState
}

// mnStep is the internal control-flow verdict of the program's helpers:
// either a definitive/fallback dmsim status (done=true), or a request to
// restart from the root (done=false), mirroring errRestart.
type mnStep struct {
	st   dmsim.OffloadStatus
	done bool
}

var mnRestart = mnStep{}

func mnDone(st dmsim.OffloadStatus) mnStep { return mnStep{st: st, done: true} }

// routeInternal fetches and validates an internal node through the
// metered view and routes key on it in place. The image comes from the
// program's own pool and goes back before the call returns: the verdict
// is all that leaves.
func (p *mnProgram) routeInternal(ctx *dmsim.MNCtx, addr dmsim.GAddr, key uint64) (route, mnStep) {
	im, _ := p.nodes.Get().(*internalImage)
	if im == nil {
		im = newInternalImage(p.ix.inner)
	}
	defer p.nodes.Put(im)
	for try := 0; try < mnTornRetries; try++ {
		if !ctx.Read(addr, im.buf) {
			return route{}, mnDone(dmsim.OffloadCrossMN)
		}
		if p.ix.inner.checkInternalImage(im.buf) != nil {
			runtime.Gosched()
			continue
		}
		im.decodeHeader()
		return im.route(key), mnDone(dmsim.OffloadOK)
	}
	return route{}, mnDone(dmsim.OffloadRetry)
}

// descend walks from the super block to the leaf covering key, chasing
// B-link siblings across half-splits. It returns the leaf address, or a
// non-OK step (fallback or restart request).
func (p *mnProgram) descend(ctx *dmsim.MNCtx, key uint64) (dmsim.GAddr, mnStep) {
	var b [8]byte
	if !ctx.Read(p.ix.super, b[:]) {
		return dmsim.NilGAddr, mnDone(dmsim.OffloadCrossMN)
	}
	cur, level := unpackSuper(binary.LittleEndian.Uint64(b[:]))
	if level == 0 {
		return cur, mnDone(dmsim.OffloadOK)
	}
	for hop := 0; hop < mnChainHops; hop++ {
		r, step := p.routeInternal(ctx, cur, key)
		if step.st != dmsim.OffloadOK {
			return dmsim.NilGAddr, step
		}
		switch {
		case r.kind == routeLost:
			return dmsim.NilGAddr, mnRestart
		case r.kind == routeDown && r.level == 1:
			return r.child, mnDone(dmsim.OffloadOK)
		}
		cur = r.child // the covering child, or the sibling of a half-split
	}
	return dmsim.NilGAddr, mnDone(dmsim.OffloadRetry)
}

// readLeafWindow mirrors a client's neighborhood window (a search's leaf
// read, an update's fetch under the lock) against local memory:
// entries [home, home+count) plus a metadata replica, version-validated.
// The caller owns the returned image.
func (p *mnProgram) readLeafWindow(ctx *dmsim.MNCtx, leaf dmsim.GAddr, home, count int) (*leafImage, int, mnStep) {
	lay := p.ix.leaf
	im := lay.getImage()
	segs := lay.neighborhoodSegments(nil, home, count, p.ix.opts.ReplicateMeta)
	for try := 0; try < mnTornRetries; try++ {
		for _, s := range segs {
			if !ctx.Read(leaf.Add(uint64(s.Off)), im.buf[s.Off:s.End]) {
				lay.putImage(im)
				return nil, 0, mnDone(dmsim.OffloadCrossMN)
			}
		}
		ranges := segs
		metaG := lay.metaInRanges(ranges)
		if !p.ix.opts.ReplicateMeta || metaG < 0 {
			rc := lay.replicaCells[0]
			if !ctx.Read(leaf.Add(uint64(rc.Off)), im.buf[rc.Off:rc.End()]) {
				lay.putImage(im)
				return nil, 0, mnDone(dmsim.OffloadCrossMN)
			}
			metaG = 0
			ranges = append(append([]byteRange{}, segs...), byteRange{Off: rc.Off, End: rc.End()})
		}
		if im.checkRanges(ranges) != nil {
			runtime.Gosched()
			continue
		}
		return im, metaG, mnDone(dmsim.OffloadOK)
	}
	lay.putImage(im)
	return nil, 0, mnDone(dmsim.OffloadRetry)
}

// emitValue resolves a found entry's stored bytes into the response:
// the inline value, or the value read out of the indirect KV block.
func (p *mnProgram) emitValue(ctx *dmsim.MNCtx, key uint64, stored []byte) mnStep {
	if !p.ix.opts.Indirect {
		if !ctx.Emit(stored) {
			return mnDone(dmsim.OffloadRetry)
		}
		return mnDone(dmsim.OffloadOK)
	}
	ptr := dmsim.UnpackGAddr(binary.LittleEndian.Uint64(stored[:8]))
	if ptr.IsNil() {
		return mnRestart
	}
	block := make([]byte, 8+p.ix.opts.ValueSize)
	if !ctx.Read(ptr, block) {
		// The KV block lives on another MN (client allocators spread
		// chunks round-robin): one-sided verbs must finish the job.
		return mnDone(dmsim.OffloadCrossMN)
	}
	if binary.LittleEndian.Uint64(block[:8]) != key {
		return mnRestart
	}
	if !ctx.Emit(block[8:]) {
		return mnDone(dmsim.OffloadRetry)
	}
	return mnDone(dmsim.OffloadOK)
}

// Search implements the offloaded point lookup: descend + neighborhood
// probe + hop-bitmap validation, all MN-local, emitting the value.
func (p *mnProgram) Search(ctx *dmsim.MNCtx, key, arg uint64) dmsim.OffloadStatus {
	if p.ix.opts.VarKeys {
		return dmsim.OffloadUnsupported
	}
	lay := p.ix.leaf
	home := lay.homeOf(key)
	for attempt := 0; attempt < mnTornRetries; attempt++ {
		leaf, step := p.descend(ctx, key)
		if !step.done {
			runtime.Gosched()
			continue
		}
		if step.st != dmsim.OffloadOK {
			return step.st
		}
		st, restart := p.searchLeafChain(ctx, leaf, key, home)
		if restart {
			runtime.Gosched()
			continue
		}
		return st
	}
	return dmsim.OffloadRetry
}

// searchLeafChain probes one leaf (and its right siblings across
// half-splits) for key. restart=true requests a fresh descent.
func (p *mnProgram) searchLeafChain(ctx *dmsim.MNCtx, leaf dmsim.GAddr, key uint64, home int) (dmsim.OffloadStatus, bool) {
	lay := p.ix.leaf
	for hops := 0; hops < mnChainHops; hops++ {
		im, metaG, step := p.readLeafWindow(ctx, leaf, home, lay.h)
		if im == nil {
			return step.st, false
		}
		foundIdx, foundVal, consistent := im.probe(home, key)
		if !consistent {
			lay.putImage(im)
			return 0, true // concurrent hop-range write: restart
		}
		meta := im.meta(metaG)
		if !meta.valid {
			lay.putImage(im)
			return 0, true
		}
		if foundIdx >= 0 {
			// foundVal aliases the image: emit (or follow the block
			// pointer) first, recycle after.
			step := p.emitValue(ctx, key, foundVal)
			lay.putImage(im)
			if !step.done {
				return 0, true
			}
			return step.st, false
		}
		lay.putImage(im)
		// Half-split: the key may have moved right. The program has no
		// parent "next child pointer", so it uses the fenceHigh replica
		// directly (the same safety net the last-child reader uses).
		if !meta.fenceInf && key >= meta.fenceHi && !meta.sibling.IsNil() {
			leaf = meta.sibling
			continue
		}
		return dmsim.OffloadNotFound, false
	}
	return dmsim.OffloadRetry, false
}

// lockLeaf takes the leaf's remote lock word by MN-local CAS. Unlike the
// client's piggyback protocol (which swaps the whole word and carries
// the payload away), the program compares and swaps only the lock bit,
// leaving the vacancy/argmax payload in place — an in-place value update
// changes neither. The two protocols interoperate: both compare only the
// lock bit.
func (p *mnProgram) lockLeaf(ctx *dmsim.MNCtx, leaf dmsim.GAddr) mnStep {
	addr := leafLockAddr(leaf)
	for try := 0; try < mnLockRetries; try++ {
		_, swapped, ok := ctx.MaskedCAS(addr, 0, lockBit, lockBit, lockBit)
		if !ok {
			return mnDone(dmsim.OffloadCrossMN)
		}
		if swapped {
			return mnDone(dmsim.OffloadOK)
		}
		runtime.Gosched()
	}
	return mnDone(dmsim.OffloadRetry)
}

// unlockLeaf clears only the lock bit, preserving the payload.
func (p *mnProgram) unlockLeaf(ctx *dmsim.MNCtx, leaf dmsim.GAddr) {
	ctx.MaskedCAS(leafLockAddr(leaf), lockBit, 0, lockBit, lockBit)
}

// Update implements the offloaded read-compare-update: locate key in its
// neighborhood under the leaf lock and swap the entry's value in place.
// Inserts, indirect values (client-side allocation) and lease locks
// (client identity lives in the lease word) stay one-sided.
func (p *mnProgram) Update(ctx *dmsim.MNCtx, key, arg uint64, val []byte) dmsim.OffloadStatus {
	o := p.ix.opts
	if o.VarKeys || o.Indirect || o.LeaseLocks {
		return dmsim.OffloadUnsupported
	}
	lay := p.ix.leaf
	if len(val) != lay.valSize {
		return dmsim.OffloadUnsupported
	}
	home := lay.homeOf(key)
	for attempt := 0; attempt < mnTornRetries; attempt++ {
		leaf, step := p.descend(ctx, key)
		if !step.done {
			runtime.Gosched()
			continue
		}
		if step.st != dmsim.OffloadOK {
			return step.st
		}
		st, restart := p.updateInChain(ctx, leaf, key, val, home)
		if restart {
			runtime.Gosched()
			continue
		}
		return st
	}
	return dmsim.OffloadRetry
}

func (p *mnProgram) updateInChain(ctx *dmsim.MNCtx, leaf dmsim.GAddr, key uint64, val []byte, home int) (dmsim.OffloadStatus, bool) {
	lay := p.ix.leaf
	// The neighborhood's entry indexes, in scratch of this call: one
	// program value serves every MN and client at once.
	var idxBuf [maxNeighborhood]int
	idxs := lay.neighborhoodIndexes(idxBuf[:0], home, lay.h)
	for hops := 0; hops < mnChainHops; hops++ {
		if step := p.lockLeaf(ctx, leaf); step.st != dmsim.OffloadOK {
			return step.st, false
		}
		im, metaG, step := p.readLeafWindow(ctx, leaf, home, lay.h)
		if im == nil {
			p.unlockLeaf(ctx, leaf)
			return step.st, false
		}
		meta := im.meta(metaG)
		if !meta.valid {
			p.unlockLeaf(ctx, leaf)
			lay.putImage(im)
			return 0, true
		}

		foundIdx := -1
		for _, i := range idxs {
			if e := im.entry(i); e.occupied && e.key == key {
				foundIdx = i
				break
			}
		}
		if foundIdx < 0 {
			if !meta.fenceInf && key >= meta.fenceHi && !meta.sibling.IsNil() {
				next := meta.sibling
				p.unlockLeaf(ctx, leaf)
				lay.putImage(im)
				leaf = next
				continue
			}
			p.unlockLeaf(ctx, leaf)
			lay.putImage(im)
			return dmsim.OffloadNotFound, false
		}

		e := im.entry(foundIdx)
		e.value = val
		im.setEntry(foundIdx, e) // bumps the entry-level version
		cellC := lay.entryCells[foundIdx]
		ok := ctx.Write(leaf.Add(uint64(cellC.Off)), im.buf[cellC.Off:cellC.End()])
		p.unlockLeaf(ctx, leaf)
		lay.putImage(im)
		if !ok {
			return dmsim.OffloadCrossMN, false
		}
		return dmsim.OffloadOK, false
	}
	return dmsim.OffloadRetry, false
}

// readWholeLeaf mirrors readLeafForScan: a full node image with version
// validation plus hop-bitmap reconstruction for every home entry, the
// walk that also leaves the leaf's slots with keys >= start in sc.slots.
func (p *mnProgram) readWholeLeaf(ctx *dmsim.MNCtx, leaf dmsim.GAddr, start uint64, sc *mnScanState) (*leafImage, mnStep) {
	lay := p.ix.leaf
	im := lay.getImage()
	clear(im.buf[:lineSize])
	for try := 0; try < mnTornRetries; try++ {
		if !ctx.Read(leaf.Add(lineSize), im.buf[lineSize:]) {
			lay.putImage(im)
			return nil, mnDone(dmsim.OffloadCrossMN)
		}
		if checkVersions(im.buf, 0, lay.allCells) != nil {
			runtime.Gosched()
			continue
		}
		var ok bool
		if sc.slots, ok = im.inRangeIfConsistent(sc.slots[:0], start); !ok {
			runtime.Gosched()
			continue
		}
		return im, mnDone(dmsim.OffloadOK)
	}
	lay.putImage(im)
	return nil, mnDone(dmsim.OffloadRetry)
}

// mnScanState carries one offloaded scan attempt along the leaf chain:
// its progress and the scratch every leaf reuses. The scratch outlives
// the invocation in mnProgram.scans; emitted starts over per attempt.
type mnScanState struct {
	emitted int
	slots   []offroute.ScanSlot // one leaf's in-range entries
	rec     []byte              // the [8B key][value] record being emitted
	block   []byte              // indirect: the KV block being read
	sort    offroute.SortScratch
}

// conflict is the verdict for an optimistic conflict met mid-scan.
// Emitted bytes cannot be retracted, so a restart is only honored before
// the first record; after it the client falls back to one-sided verbs.
func (s *mnScanState) conflict() mnStep {
	if s.emitted == 0 {
		return mnRestart
	}
	return mnDone(dmsim.OffloadRetry)
}

// Scan implements the offloaded range collection: walk the leaf chain
// MN-side, sort each leaf's in-range entries, and emit [8B key][value]
// records until limit records are out or the chain ends.
func (p *mnProgram) Scan(ctx *dmsim.MNCtx, start, arg uint64, limit int) dmsim.OffloadStatus {
	if p.ix.opts.VarKeys {
		return dmsim.OffloadUnsupported
	}
	if limit <= 0 {
		return dmsim.OffloadOK
	}
	sc, _ := p.scans.Get().(*mnScanState)
	if sc == nil {
		sc = new(mnScanState)
	}
	defer p.scans.Put(sc)
	for attempt := 0; attempt < mnTornRetries; attempt++ {
		leaf, step := p.descend(ctx, start)
		if step.done && step.st == dmsim.OffloadOK {
			sc.emitted = 0
			step = p.scanChain(ctx, leaf, start, limit, sc)
		}
		if step.done {
			return step.st
		}
		runtime.Gosched()
	}
	return dmsim.OffloadRetry
}

// scanChain emits leaf after leaf from `leaf` on, following sibling
// pointers, until limit records are out or the chain ends.
func (p *mnProgram) scanChain(ctx *dmsim.MNCtx, leaf dmsim.GAddr, start uint64, limit int, sc *mnScanState) mnStep {
	lay := p.ix.leaf
	for hops := 0; hops < mnChainHops; hops++ {
		im, step := p.readWholeLeaf(ctx, leaf, start, sc)
		if im == nil {
			if step.st == dmsim.OffloadRetry {
				return sc.conflict()
			}
			return step
		}
		meta := im.meta(0)
		if !meta.valid {
			lay.putImage(im)
			return sc.conflict()
		}
		step, more := p.emitLeaf(ctx, im, limit, sc)
		lay.putImage(im) // the records emitLeaf sorted aliased it
		if !more {
			return step
		}
		if meta.sibling.IsNil() {
			return mnDone(dmsim.OffloadOK)
		}
		leaf = meta.sibling
	}
	return sc.conflict() // chain budget exhausted
}

// emitLeaf sorts one validated leaf's in-range entries (sc.slots) and
// emits them. more reports that the leaf is exhausted with the limit not
// yet reached; otherwise the step is the scan's verdict.
func (p *mnProgram) emitLeaf(ctx *dmsim.MNCtx, im *leafImage, limit int, sc *mnScanState) (step mnStep, more bool) {
	for _, s := range offroute.SortedPrefix(sc.slots, limit-sc.emitted, &sc.sort) {
		val := im.value(s.Idx)
		if p.ix.opts.Indirect {
			ptr := ptrOf(val)
			if ptr.IsNil() {
				return sc.conflict(), false
			}
			if sc.block == nil {
				sc.block = make([]byte, 8+p.ix.opts.ValueSize)
			}
			if !ctx.Read(ptr, sc.block) {
				return mnDone(dmsim.OffloadCrossMN), false
			}
			if binary.LittleEndian.Uint64(sc.block[:8]) != s.Key {
				return sc.conflict(), false
			}
			val = sc.block[8:]
		}
		if sc.rec == nil {
			sc.rec = make([]byte, 8+len(val))
		}
		binary.LittleEndian.PutUint64(sc.rec[:8], s.Key)
		copy(sc.rec[8:], val)
		if !ctx.Emit(sc.rec) {
			return mnDone(dmsim.OffloadOK), false // response buffer full: done
		}
		sc.emitted++
	}
	if sc.emitted >= limit {
		return mnDone(dmsim.OffloadOK), false
	}
	return mnStep{}, true
}
