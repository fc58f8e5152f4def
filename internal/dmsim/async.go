package dmsim

import (
	"encoding/binary"
	"fmt"
)

// Asynchronous verbs (post/poll). A real RDMA NIC decouples posting a
// work request from reaping its completion: the CPU rings the doorbell
// and moves on, and several verbs from one QP overlap their round trips
// on the wire. CHIME's artifact exploits exactly this by running
// multiple coroutines per CPU thread; this layer gives the simulator the
// same capability with explicit completion handles.
//
// Virtual-clock rules:
//
//   - Posting charges the NIC immediately (the single-server recurrence
//     runs at post time, so NIC queueing between outstanding verbs of
//     one client — and across clients — is preserved) but advances the
//     issuing client's clock only by IssueOverhead.
//   - Poll advances the client's clock to the verb's completion time
//     (NIC completion + one RTT), never backward. Polling an already
//     overtaken completion costs nothing.
//   - WaitAll is Poll over a set: the clock lands on the latest
//     completion. An empty set is a no-op.
//
// Data movement happens at post time, exactly when the synchronous verbs
// move it: a posted READ snapshots remote memory when posted and a
// posted WRITE lands immediately. Completions carry timing (and CAS
// results), not payloads. This keeps program order between a client's
// own posted verbs trivially intact; cross-client interleavings remain
// as racy as real hardware and must be validated by the layers above
// (version checks), as with the synchronous verbs.
//
// The cohort contract is the synchronous verbs': posting synchronizes
// with the cohort window (a member cannot flood the NIC with posts from
// the future), and a Poll whose completion carries the member's clock
// past the window edge parks it there, so whatever it does with the
// result happens after every member that is further behind.

// Completion is the handle for one posted verb. It is owned by the
// client that posted it and, like the client itself, is not safe for
// concurrent use.
type Completion struct {
	c       *Client
	nicDone int64 // completion time at the NIC (before the return RTT)
	polled  bool

	// CAS / FetchAdd results. Valid once the completion is polled
	// (consuming them earlier is a simulation-order bug, guarded by
	// CASResult).
	prev    uint64
	swapped bool
	isAtom  bool

	// Offload results (offload.go), guarded by OffloadResult the same
	// way.
	offN      int32
	offStatus OffloadStatus
	isOff     bool

	// pooled marks a handle sitting in its client's freelist. Guards
	// double-Release and use-after-release.
	pooled bool

	// Flight-recorder decomposition of this verb's virtual timeline
	// (populated only when the client has a flight attached; zero
	// otherwise). Poll peels the clock jump into these segments — see
	// obs.Flight.ChargeVerb. Reset wholesale by newCompletion.
	ledPenalty  int64
	ledNICQueue int64
	ledNICSvc   int64
	ledMNQueue  int64
	ledMNSvc    int64
}

// recordLedger stashes a served verb's timing decomposition on the
// handle for Poll-time phase attribution: NIC service as recomputed
// from the payload, queueing as the serve recurrence's wait, and the
// fault-gate penalty. Callers only invoke it when a flight is attached.
func (h *Completion) recordLedger(penalty, arrival, nicDone, nicSvc int64) {
	h.ledPenalty = penalty
	h.ledNICSvc = nicSvc
	h.ledNICQueue = nicDone - arrival - nicSvc
}

// newCompletion takes a handle from the client's freelist, or allocates
// one the first few times. Together with Release this makes the
// steady-state post/poll path allocation-free: the freelist grows to
// the client's peak pipeline depth and is then recycled forever.
//
//chime:coldalloc freelist warms to peak pipeline depth, then recycles
func (c *Client) newCompletion() *Completion {
	if n := len(c.free); n > 0 {
		h := c.free[n-1]
		c.free = c.free[:n-1]
		*h = Completion{c: c}
		return h
	}
	c.completionAllocs++
	return &Completion{c: c}
}

// Release returns a polled completion to its client's freelist for
// reuse. The synchronous verbs (Read, Write, CAS, ...) release their
// handles internally; pipelined callers that keep handles across
// posts may opt in by releasing each handle once they are done with it
// (after Poll and, for atomics, after reading CASResult). Releasing is
// optional — an unreleased handle is simply garbage-collected — but a
// released handle must not be touched again: the next post may recycle
// it. Releasing nil is a no-op; releasing twice, releasing another
// client's handle, or releasing before Poll panics, since each is a
// lifetime bug that would silently corrupt a recycled handle later.
//
//chime:noalloc
func (c *Client) Release(h *Completion) {
	if h == nil {
		return
	}
	if h.c != c {
		panic("dmsim: Release of another client's completion")
	}
	if !h.polled {
		panic("dmsim: Release before Poll")
	}
	if h.pooled {
		panic("dmsim: double Release of a completion")
	}
	h.pooled = true
	//lint:allow noalloc freelist retains capacity after warm-up
	c.free = append(c.free, h)
}

// Done reports whether the completion has been polled.
func (h *Completion) Done() bool { return h.polled }

// CASResult returns the previous word and swap outcome of a posted
// atomic. It panics when the completion has not been polled yet or did
// not come from PostCAS/PostMaskedCAS/PostFetchAdd — consuming a result
// before its virtual completion would let simulated code act on data it
// cannot have yet.
func (h *Completion) CASResult() (uint64, bool) {
	if !h.polled {
		panic("dmsim: CASResult before Poll")
	}
	if !h.isAtom {
		panic("dmsim: CASResult on a non-atomic completion")
	}
	return h.prev, h.swapped
}

// post charges issue overhead, tracks in-flight depth, and wraps the NIC
// completion time.
//
//chime:noalloc
func (c *Client) post(nicDone int64) *Completion {
	c.now += c.issueNs
	c.fl.ChargeActive(c.issueNs)
	c.inflight++
	if c.inflight > c.stats.MaxInflight {
		c.stats.MaxInflight = c.inflight
	}
	c.stats.Posted++
	h := c.newCompletion()
	h.nicDone = nicDone
	return h
}

// payloads returns the client's reusable batch-payload scratch slice,
// sized to n. One slice per client suffices: batches never nest, and
// serveBatch consumes the slice before returning.
//
//chime:coldalloc scratch grows once to peak batch size, then is reused
func (c *Client) payloads(n int) []int {
	if cap(c.payloadScratch) < n {
		c.payloadScratch = make([]int, n)
	}
	return c.payloadScratch[:n]
}

// Poll reaps one completion: the client's clock advances to the verb's
// completion time (never backward) and the handle is marked done. A
// cohort member carried past the window edge parks before it returns.
// Polling twice is harmless. Returns the client's clock after the poll.
//
//chime:noalloc
func (c *Client) Poll(h *Completion) int64 {
	if h == nil || h.polled {
		return c.now
	}
	if h.c != c {
		panic("dmsim: Poll on another client's completion")
	}
	h.polled = true
	c.inflight--
	if t := h.nicDone + c.rttNs; t > c.now {
		if c.fl != nil {
			c.fl.ChargeVerb(t-c.now, h.ledPenalty, h.ledNICQueue, h.ledNICSvc,
				h.ledMNQueue, h.ledMNSvc, c.rttNs)
		}
		c.now = t
		c.Sync()
	}
	return c.now
}

// WaitAll reaps every completion in the set; the clock lands on the
// latest of them. An empty or all-nil set is a no-op.
func (c *Client) WaitAll(hs ...*Completion) int64 {
	for _, h := range hs {
		c.Poll(h)
	}
	return c.now
}

// Inflight returns the number of posted-but-unpolled verbs.
func (c *Client) Inflight() int { return int(c.inflight) }

// PostRead posts a one-sided READ and returns immediately. buf is
// filled at post time (see the package comment on data movement); the
// completion carries the verb's timing.
//
//chime:noalloc
func (c *Client) PostRead(a GAddr, buf []byte) (*Completion, error) {
	c.Sync()
	mn, err := c.f.checkRange(a, len(buf))
	if err != nil {
		return nil, err
	}
	penalty, err := c.faultGate(VerbRead, int(a.MN))
	if err != nil {
		return nil, err
	}
	mn.copyOut(int32(c.id), a.Off, buf)

	arrival := c.now + c.issueNs + penalty
	done := mn.nic.serve(c.shard(), kindRead, arrival, len(buf))

	c.stats.Reads++
	c.stats.Trips++
	c.stats.BytesRead += int64(len(buf))
	h := c.post(done)
	if c.fl != nil {
		h.recordLedger(penalty, arrival, done, mn.nic.serviceNs(len(buf)))
	}
	return h, nil
}

// PostReadBatch posts a doorbell batch of READs (one round trip, every
// segment serviced back-to-back, all on one MN) and returns immediately.
//
//chime:noalloc
func (c *Client) PostReadBatch(addrs []GAddr, bufs [][]byte) (*Completion, error) {
	c.Sync()
	if len(addrs) != len(bufs) {
		//lint:allow noalloc batch-validation error path, never taken by correct callers
		return nil, fmt.Errorf("dmsim: PostReadBatch got %d addrs, %d bufs", len(addrs), len(bufs))
	}
	if len(addrs) == 0 {
		// A degenerate batch completes instantly: nothing was posted.
		h := c.newCompletion()
		h.nicDone = c.now - c.rttNs
		h.polled = true
		return h, nil
	}
	mn0 := addrs[0].MN
	penalty, err := c.faultGate(VerbRead, int(mn0))
	if err != nil {
		return nil, err
	}
	payloads := c.payloads(len(addrs))
	var total int64
	for i, a := range addrs {
		if a.MN != mn0 {
			//lint:allow noalloc batch-validation error path, never taken by correct callers
			return nil, fmt.Errorf("dmsim: PostReadBatch spans MNs %d and %d", mn0, a.MN)
		}
		mn, err := c.f.checkRange(a, len(bufs[i]))
		if err != nil {
			return nil, err
		}
		mn.copyOut(int32(c.id), a.Off, bufs[i])
		payloads[i] = len(bufs[i])
		total += int64(len(bufs[i]))
	}
	mn := c.f.mns[mn0]
	arrival := c.now + c.issueNs + penalty
	done := mn.nic.serveBatch(c.shard(), kindRead, arrival, payloads)

	c.stats.Reads += int64(len(addrs))
	c.stats.Trips++
	c.stats.BytesRead += total
	h := c.post(done)
	if c.fl != nil {
		h.recordLedger(penalty, arrival, done, batchServiceNs(mn.nic, payloads))
	}
	return h, nil
}

// batchServiceNs recomputes a doorbell batch's total NIC service time
// for the flight ledger (the hot path stages no per-segment slice).
//
//chime:noalloc
func batchServiceNs(n *nic, payloads []int) int64 {
	var svc int64
	for _, p := range payloads {
		svc += n.serviceNs(p)
	}
	return svc
}

// PostWrite posts a one-sided WRITE; data lands in remote memory at post
// time, the completion carries the verb's timing.
//
//chime:noalloc
func (c *Client) PostWrite(a GAddr, data []byte) (*Completion, error) {
	c.Sync()
	mn, err := c.f.checkRange(a, len(data))
	if err != nil {
		return nil, err
	}
	penalty, err := c.faultGate(VerbWrite, int(a.MN))
	if err != nil {
		return nil, err
	}
	mn.copyIn(a.Off, data)

	arrival := c.now + c.issueNs + penalty
	done := mn.nic.serve(c.shard(), kindWrite, arrival, len(data))
	if mn.ps != nil {
		// Write-behind durability: the log append delays only this
		// verb's ack (the NIC stays free for others).
		done += mn.ps.logWrite(a.Off, data)
	}

	c.stats.Writes++
	c.stats.Trips++
	c.stats.BytesWritten += int64(len(data))
	h := c.post(done)
	if c.fl != nil {
		h.recordLedger(penalty, arrival, done, mn.nic.serviceNs(len(data)))
	}
	return h, nil
}

// PostWriteBatch posts a doorbell batch of WRITEs (one round trip, all
// on one MN) and returns immediately.
//
//chime:noalloc
func (c *Client) PostWriteBatch(addrs []GAddr, datas [][]byte) (*Completion, error) {
	c.Sync()
	if len(addrs) != len(datas) {
		//lint:allow noalloc batch-validation error path, never taken by correct callers
		return nil, fmt.Errorf("dmsim: PostWriteBatch got %d addrs, %d bufs", len(addrs), len(datas))
	}
	if len(addrs) == 0 {
		h := c.newCompletion()
		h.nicDone = c.now - c.rttNs
		h.polled = true
		return h, nil
	}
	mn0 := addrs[0].MN
	penalty, err := c.faultGate(VerbWrite, int(mn0))
	if err != nil {
		return nil, err
	}
	payloads := c.payloads(len(addrs))
	var total int64
	for i, a := range addrs {
		if a.MN != mn0 {
			//lint:allow noalloc batch-validation error path, never taken by correct callers
			return nil, fmt.Errorf("dmsim: PostWriteBatch spans MNs %d and %d", mn0, a.MN)
		}
		mn, err := c.f.checkRange(a, len(datas[i]))
		if err != nil {
			return nil, err
		}
		mn.copyIn(a.Off, datas[i])
		payloads[i] = len(datas[i])
		total += int64(len(datas[i]))
	}
	mn := c.f.mns[mn0]
	arrival := c.now + c.issueNs + penalty
	done := mn.nic.serveBatch(c.shard(), kindWrite, arrival, payloads)
	if mn.ps != nil {
		for i, a := range addrs {
			done += mn.ps.logWrite(a.Off, datas[i])
		}
	}

	c.stats.Writes += int64(len(addrs))
	c.stats.Trips++
	c.stats.BytesWritten += total
	h := c.post(done)
	if c.fl != nil {
		h.recordLedger(penalty, arrival, done, batchServiceNs(mn.nic, payloads))
	}
	return h, nil
}

// PostCAS posts an 8-byte compare-and-swap. The atomic applies at post
// time; read the outcome with CASResult after polling.
//
//chime:noalloc
func (c *Client) PostCAS(a GAddr, old, new uint64) (*Completion, error) {
	return c.PostMaskedCAS(a, old, new, ^uint64(0), ^uint64(0))
}

// PostMaskedCAS posts the RDMA extended masked atomic (§4.2.1).
//
//chime:noalloc
func (c *Client) PostMaskedCAS(a GAddr, cmp, swap, cmpMask, swapMask uint64) (*Completion, error) {
	c.Sync()
	mn, err := c.f.checkRange(a, 8)
	if err != nil {
		return nil, err
	}
	penalty, err := c.faultGate(VerbAtomic, int(a.MN))
	if err != nil {
		return nil, err
	}
	var persistNs int64
	word := mn.lockWord(a.Off)
	prev := binary.LittleEndian.Uint64(word)
	ok := prev&cmpMask == cmp&cmpMask
	if ok {
		next := (prev &^ swapMask) | (swap & swapMask)
		binary.LittleEndian.PutUint64(word, next)
		if mn.ps != nil {
			// Logged under the stripe lock so competing atomics on one
			// word (lock handoffs) replay in their serialization order.
			persistNs = mn.ps.logWord(a.Off, next)
		}
	}
	mn.unlockWord(a.Off)
	c.observeCAS(a, ok, cmpMask, swap)

	arrival := c.now + c.issueNs + penalty
	done := mn.nic.serve(c.shard(), kindAtomic, arrival, 8) + persistNs

	c.stats.Atomics++
	c.stats.Trips++
	c.stats.BytesRead += 8
	c.stats.BytesWritten += 8
	h := c.post(done)
	h.prev, h.swapped, h.isAtom = prev, ok, true
	if c.fl != nil {
		h.recordLedger(penalty, arrival, done, mn.nic.serviceNs(8))
	}
	return h, nil
}

// PostFetchAdd posts an 8-byte FETCH_AND_ADD; the previous value is
// available via CASResult (swap outcome always true) after polling.
//
//chime:noalloc
func (c *Client) PostFetchAdd(a GAddr, delta uint64) (*Completion, error) {
	c.Sync()
	mn, err := c.f.checkRange(a, 8)
	if err != nil {
		return nil, err
	}
	penalty, err := c.faultGate(VerbAtomic, int(a.MN))
	if err != nil {
		return nil, err
	}
	var persistNs int64
	word := mn.lockWord(a.Off)
	prev := binary.LittleEndian.Uint64(word)
	binary.LittleEndian.PutUint64(word, prev+delta)
	if mn.ps != nil {
		persistNs = mn.ps.logWord(a.Off, prev+delta)
	}
	mn.unlockWord(a.Off)

	arrival := c.now + c.issueNs + penalty
	done := mn.nic.serve(c.shard(), kindAtomic, arrival, 8) + persistNs

	c.stats.Atomics++
	c.stats.Trips++
	c.stats.BytesRead += 8
	c.stats.BytesWritten += 8
	h := c.post(done)
	h.prev, h.swapped, h.isAtom = prev, true, true
	if c.fl != nil {
		h.recordLedger(penalty, arrival, done, mn.nic.serviceNs(8))
	}
	return h, nil
}
