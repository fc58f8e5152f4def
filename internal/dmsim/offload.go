package dmsim

import (
	"encoding/binary"
	"fmt"
)

// MN-side offload verbs. An offloadable verb ships one bounded index
// operation to the target memory node instead of traversing remote
// structures with a chain of one-sided verbs: the client pays one round
// trip (request in, result out) plus the MN CPU service time of the
// program (mncpu.go). This is the hybrid protocol of Outback/Clio: the
// index registers a co-designed MN-side program at bootstrap, and each
// op chooses per-call between one-sided traversal and offload.
//
// Index-layout knowledge stays out of dmsim: the fabric stores opaque
// MNProgram values and hands them a metered MN-side view (MNCtx) whose
// byte accounting drives the MN CPU service time. Programs run at post
// time — exactly when every other verb moves data — against the same
// stripe-locked memory one-sided verbs hit, so an MN-side read can
// observe the same line-granular tearing a remote READ would and must
// validate with the index's own version machinery, retrying locally
// (cheap — that locality is the whole win) or returning a fallback
// verdict that sends the client back to the one-sided path.
//
// Three verbs are exposed, mapping to the three MNProgram methods:
//
//	LeafSearchAtMN      one RPC replaces descend + leaf fetch + probe
//	CompareAndCASAtMN   read-compare-update without shipping the leaf
//	ScatterGatherScan   MN-side range collection into one response
//
// All three go through the fault/verb plane as VerbRPC class verbs: the
// gate is consulted before the program runs, so a crashed or faulted
// client leaves MN memory untouched.

// OffloadStatus is the verdict of one offloaded program execution.
type OffloadStatus uint8

const (
	// OffloadOK: the program completed the operation.
	OffloadOK OffloadStatus = iota

	// OffloadNotFound: the program completed and determined the key is
	// absent. A definitive verdict, not a fallback.
	OffloadNotFound

	// OffloadRetry: MN-local optimistic validation kept failing (or an
	// MN-side lock stayed contended) past the program's local budget.
	OffloadRetry

	// OffloadCrossMN: the program hit a reference leaving its MN. MN
	// cores only reach their own memory; the client falls back to
	// one-sided verbs, which reach everything.
	OffloadCrossMN

	// OffloadUnsupported: the program does not implement this op for the
	// index's configuration (e.g. updates of indirect values, whose
	// safety protocol needs client-side allocation).
	OffloadUnsupported
)

// Fallback reports whether the verdict sends the caller back to the
// one-sided path. OK and NotFound are both definitive.
func (s OffloadStatus) Fallback() bool {
	return s != OffloadOK && s != OffloadNotFound
}

func (s OffloadStatus) String() string {
	switch s {
	case OffloadOK:
		return "ok"
	case OffloadNotFound:
		return "notfound"
	case OffloadRetry:
		return "retry"
	case OffloadCrossMN:
		return "crossmn"
	case OffloadUnsupported:
		return "unsupported"
	}
	return fmt.Sprintf("offloadstatus(%d)", uint8(s))
}

// MNProgramID names a registered MN-side program. The zero value is
// invalid.
type MNProgramID int32

// MNProgram is one index's MN-side offload handlers, co-designed with
// the index's remote layout. Implementations must be safe for
// concurrent use (one call per client goroutine, like the index's own
// shared state) and must touch remote memory only through the MNCtx —
// the metering on that view is what the MN CPU charges for.
//
// arg carries a program-defined routing hint computed CN-side (ROLEX
// ships the model-predicted leaf group; tree indexes ignore it), so
// learned-model state never needs to live at the MN.
type MNProgram interface {
	// Search locates key and emits its value into the response buffer.
	Search(ctx *MNCtx, key, arg uint64) OffloadStatus

	// Update overwrites the value of an existing key in place (the
	// read-compare-update shape: probe, compare keys, swap the entry
	// under the index's own lock word). Absent keys are NotFound —
	// inserts keep their placement/split logic client-side.
	Update(ctx *MNCtx, key, arg uint64, val []byte) OffloadStatus

	// Scan collects up to limit entries with key >= start, in key order,
	// emitting [8B key][value] records into the response buffer.
	Scan(ctx *MNCtx, start, arg uint64, limit int) OffloadStatus
}

// RegisterMNProgram installs an index's MN-side program on every MN and
// returns its id. Call at bootstrap, before offload traffic; programs
// cannot be unregistered.
func (f *Fabric) RegisterMNProgram(p MNProgram) MNProgramID {
	f.progMu.Lock()
	defer f.progMu.Unlock()
	f.progs = append(f.progs, p)
	return MNProgramID(len(f.progs))
}

func (f *Fabric) program(id MNProgramID) MNProgram {
	if id < 1 || int(id) > len(f.progs) {
		return nil
	}
	return f.progs[id-1]
}

// MNCtx is the metered MN-side memory view handed to MNProgram methods.
// Every byte moved through it is charged to the program's MN CPU
// service time. Reads and writes are line-atomic under the same stripe
// locks one-sided verbs use; accesses leaving the MN (or its bounds)
// return false so the program can yield a CrossMN verdict. Not safe for
// concurrent use; valid only for the duration of the program call.
type MNCtx struct {
	f       *Fabric
	mn      *memoryNode
	mnIdx   int
	cl      *Client // issuing client (nil under ExecOffload)
	touched int64
	out     []byte
	outN    int

	// persistNs accumulates the durability charge of the program's
	// mutations (persist.go); postOffload adds it to the completion.
	persistNs int64
}

// MN returns the index of the memory node the program runs on.
func (x *MNCtx) MN() int { return x.mnIdx }

// local reports whether [a, a+n) is on this MN and in bounds.
func (x *MNCtx) local(a GAddr, n int) bool {
	return int(a.MN) == x.mnIdx && n >= 0 && a.Off+uint64(n) <= uint64(len(x.mn.mem))
}

// stripe is the reader-count stripe of the program's reads: the issuing
// client's, like its one-sided READs.
func (x *MNCtx) stripe() int32 {
	if x.cl == nil {
		return 0
	}
	return int32(x.cl.id)
}

// Read copies MN-local memory into buf (line-atomic per 64 B, torn
// across lines exactly like a one-sided READ). False means the address
// leaves this MN or its bounds — return OffloadCrossMN.
func (x *MNCtx) Read(a GAddr, buf []byte) bool {
	if !x.local(a, len(buf)) {
		return false
	}
	x.mn.copyOut(x.stripe(), a.Off, buf)
	x.touched += int64(len(buf))
	return true
}

// Write stores data into MN-local memory (line-atomic per 64 B).
func (x *MNCtx) Write(a GAddr, data []byte) bool {
	if !x.local(a, len(data)) {
		return false
	}
	x.mn.copyIn(a.Off, data)
	x.touched += int64(len(data))
	if x.mn.ps != nil {
		x.persistNs += x.mn.ps.logWrite(a.Off, data)
	}
	return true
}

// CAS is MaskedCAS with full masks.
func (x *MNCtx) CAS(a GAddr, old, new uint64) (prev uint64, swapped, ok bool) {
	return x.MaskedCAS(a, old, new, ^uint64(0), ^uint64(0))
}

// MaskedCAS applies the extended masked atomic to an MN-local word,
// under the same stripe lock remote atomics take — MN-side lock
// acquisition interoperates exactly with client-side CAS on the same
// word. ok=false means the address leaves this MN or its bounds.
// Applied atomics are reported to the fault plane on behalf of the
// issuing client, so crash-after-N-lock-acquires schedules count
// offloaded acquires too.
func (x *MNCtx) MaskedCAS(a GAddr, cmp, swap, cmpMask, swapMask uint64) (prev uint64, swapped, ok bool) {
	if !x.local(a, 8) {
		return 0, false, false
	}
	word := x.mn.lockWord(a.Off)
	prev = binary.LittleEndian.Uint64(word)
	swapped = prev&cmpMask == cmp&cmpMask
	if swapped {
		next := (prev &^ swapMask) | (swap & swapMask)
		binary.LittleEndian.PutUint64(word, next)
		if x.mn.ps != nil {
			// Under the stripe lock, like PostMaskedCAS: handoffs on
			// one word must replay in serialization order.
			x.persistNs += x.mn.ps.logWord(a.Off, next)
		}
	}
	x.mn.unlockWord(a.Off)
	x.touched += 8
	if x.cl != nil {
		x.cl.observeCAS(a, swapped, cmpMask, swap)
	}
	return prev, swapped, true
}

// Emit appends p to the response buffer. False means the caller's
// buffer is full; the program should stop emitting and return.
func (x *MNCtx) Emit(p []byte) bool {
	if x.outN+len(p) > len(x.out) {
		return false
	}
	copy(x.out[x.outN:], p)
	x.outN += len(p)
	x.touched += int64(len(p))
	return true
}

// ExecOffload runs fn against an unmetered-cost MN-side view: no NIC or
// MN CPU charge, no fault gate, no client. It exists for dmsim tests
// and debugging only — index code must reach programs through the
// offload verbs (enforced by chimelint's verbgate analyzer, like
// Peek/Poke). Returns the bytes emitted and touched.
func (f *Fabric) ExecOffload(mn int, dst []byte, fn func(*MNCtx)) (n int, touched int64, err error) {
	if mn < 0 || mn >= len(f.mns) {
		return 0, 0, fmt.Errorf("dmsim: ExecOffload on MN %d of %d", mn, len(f.mns))
	}
	ctx := MNCtx{f: f, mn: f.mns[mn], mnIdx: mn, out: dst}
	fn(&ctx)
	return ctx.outN, ctx.touched, nil
}

// offKind dispatches the three verb shapes onto MNProgram methods.
type offKind uint8

const (
	offSearch offKind = iota
	offUpdate
	offScan
)

// offHeaderBytes is the on-wire request/response header of an offload
// RPC: program id, op, key, arg, limit, status, result length.
const offHeaderBytes = 32

// postOffload is the single offload verb path: fault gate, program
// execution against a metered view, NIC charge for request+response,
// MN CPU charge for the program, pooled completion. The per-client
// scratch MNCtx keeps the steady state allocation-free.
func (c *Client) postOffload(id MNProgramID, mn int, kind offKind, key, arg uint64, val []byte, limit int, dst []byte) (*Completion, error) {
	c.Sync()
	if mn < 0 || mn >= len(c.f.mns) {
		return nil, fmt.Errorf("dmsim: offload to MN %d of %d", mn, len(c.f.mns))
	}
	prog := c.f.program(id)
	if prog == nil {
		return nil, fmt.Errorf("dmsim: offload with unregistered program id %d", id)
	}
	penalty, err := c.faultGate(VerbRPC, mn)
	if err != nil {
		return nil, err
	}
	node := c.f.mns[mn]

	ctx := &c.offCtx
	*ctx = MNCtx{f: c.f, mn: node, mnIdx: mn, cl: c, out: dst}
	var st OffloadStatus
	switch kind {
	case offSearch:
		st = prog.Search(ctx, key, arg)
	case offUpdate:
		st = prog.Update(ctx, key, arg, val)
	default:
		st = prog.Scan(ctx, key, arg, limit)
	}
	n := ctx.outN
	touched := ctx.touched
	persistNs := ctx.persistNs
	ctx.cl = nil // drop references until the next offload reuses it
	ctx.out = nil
	ctx.mn = nil
	ctx.f = nil

	reqBytes := offHeaderBytes + len(val)
	respBytes := offHeaderBytes + n
	arrival := c.now + c.issueNs + penalty
	mnSvc := node.cpu.serviceNs(touched)
	nicDone := node.nic.serve(c.shard(), kindRPC, arrival, reqBytes+respBytes)
	cpuDone := node.cpu.serve(c.shard(), nicDone, mnSvc, st.Fallback()) + persistNs

	c.stats.RPCs++
	c.stats.Offloads++
	c.stats.Trips++
	c.stats.BytesWritten += int64(reqBytes)
	c.stats.BytesRead += int64(respBytes)
	h := c.post(cpuDone)
	h.offN, h.offStatus, h.isOff = int32(n), st, true
	if c.fl != nil {
		h.recordLedger(penalty, arrival, nicDone, node.nic.serviceNs(reqBytes+respBytes))
		h.ledMNSvc = mnSvc
		h.ledMNQueue = cpuDone - nicDone - mnSvc
	}
	return h, nil
}

// OffloadResult returns the emitted byte count and verdict of a polled
// offload completion. It panics before Poll, or on a completion that
// did not come from an offload verb.
func (h *Completion) OffloadResult() (int, OffloadStatus) {
	if !h.polled {
		panic("dmsim: OffloadResult before Poll")
	}
	if !h.isOff {
		panic("dmsim: OffloadResult on a non-offload completion")
	}
	return int(h.offN), h.offStatus
}

// waitOffload is the shared sync tail: poll, read, release.
func (c *Client) waitOffload(h *Completion) (int, OffloadStatus) {
	c.Poll(h)
	n, st := h.OffloadResult()
	c.Release(h)
	return n, st
}

// PostLeafSearchAtMN posts an offloaded point lookup: the registered
// program descends and probes at the MN and emits the value into dst.
func (c *Client) PostLeafSearchAtMN(id MNProgramID, mn int, key, arg uint64, dst []byte) (*Completion, error) {
	return c.postOffload(id, mn, offSearch, key, arg, nil, 0, dst)
}

// LeafSearchAtMN is the synchronous form of PostLeafSearchAtMN. It
// returns the emitted byte count and the program's verdict; on a
// Fallback() verdict the caller should redo the op one-sided.
func (c *Client) LeafSearchAtMN(id MNProgramID, mn int, key, arg uint64, dst []byte) (int, OffloadStatus, error) {
	h, err := c.PostLeafSearchAtMN(id, mn, key, arg, dst)
	if err != nil {
		return 0, 0, err
	}
	n, st := c.waitOffload(h)
	return n, st, nil
}

// PostCompareAndCASAtMN posts an offloaded in-place update: the program
// locates key, takes the index's own lock word via MN-local CAS, and
// swaps the entry without shipping the leaf to the client.
func (c *Client) PostCompareAndCASAtMN(id MNProgramID, mn int, key, arg uint64, val []byte) (*Completion, error) {
	return c.postOffload(id, mn, offUpdate, key, arg, val, 0, nil)
}

// CompareAndCASAtMN is the synchronous form of PostCompareAndCASAtMN.
func (c *Client) CompareAndCASAtMN(id MNProgramID, mn int, key, arg uint64, val []byte) (OffloadStatus, error) {
	h, err := c.PostCompareAndCASAtMN(id, mn, key, arg, val)
	if err != nil {
		return 0, err
	}
	_, st := c.waitOffload(h)
	return st, nil
}

// PostScatterGatherScan posts an offloaded range collection: the
// program walks the index MN-side and emits up to limit [8B key][value]
// records into dst, replacing a chain of leaf fetches with one RPC.
func (c *Client) PostScatterGatherScan(id MNProgramID, mn int, start, arg uint64, limit int, dst []byte) (*Completion, error) {
	return c.postOffload(id, mn, offScan, start, arg, nil, limit, dst)
}

// ScatterGatherScan is the synchronous form of PostScatterGatherScan.
// It returns the emitted byte count and the program's verdict.
func (c *Client) ScatterGatherScan(id MNProgramID, mn int, start, arg uint64, limit int, dst []byte) (int, OffloadStatus, error) {
	h, err := c.PostScatterGatherScan(id, mn, start, arg, limit, dst)
	if err != nil {
		return 0, 0, err
	}
	n, st := c.waitOffload(h)
	return n, st, nil
}
