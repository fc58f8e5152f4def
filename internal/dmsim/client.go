package dmsim

import "chime/internal/obs"

// ClientStats counts the remote traffic one client has generated.
// Batched reads count one Trip but one Read per segment, matching how
// doorbell batching behaves on real NICs.
type ClientStats struct {
	Reads        int64
	Writes       int64
	Atomics      int64
	RPCs         int64
	Trips        int64
	BytesRead    int64
	BytesWritten int64

	// Offloads counts MN-side offload verbs (offload.go); each also
	// counts as one RPC and one Trip.
	Offloads int64

	// Posted counts verbs issued through the asynchronous layer
	// (synchronous verbs are post+wait, so every verb counts).
	// MaxInflight is the deepest post/poll pipeline the client reached.
	Posted      int64
	MaxInflight int64
}

// Client is one simulated compute-side client (one CPU core / coroutine
// on a CN in the paper's terminology). A Client is NOT safe for
// concurrent use: each simulated client owns exactly one goroutine, and
// its virtual clock advances as it issues verbs.
//
// Verbs come in two flavors:
//
//   - Synchronous (Read, Write, CAS, ...): return after the simulated
//     round trip completes and advance the client's clock accordingly.
//   - Asynchronous (PostRead, PostWrite, PostCAS, ... in async.go):
//     return a *Completion immediately, advancing the clock only by the
//     issue overhead; Poll/WaitAll advance it to the completion time.
//
// The synchronous verbs are implemented as post + immediate wait, so
// both flavors share one NIC-charging path and identical semantics.
type Client struct {
	f     *Fabric
	id    int64
	now   int64 // virtual nanoseconds
	gated bool  // member of the fabric's cohort (eventloop.go)

	inflight int64 // posted but not yet polled completions

	stats ClientStats

	rttNs   int64
	issueNs int64
	rpcNs   int64

	// Fault plane (fault.go): per-attempt verb sequence for
	// deterministic schedules, the retry policy, and the crash latch.
	verbSeq      int64
	timeoutNs    int64
	faultRetries int
	crashed      bool

	// Cohort scheduler state (eventloop.go). evSlot is the dense cohort
	// slot assigned at first join (-1 until then); evLane/evLocal are
	// derived from it. evPark is the cap-1 wake channel; evBaton marks
	// this client as its lane's current runner; evMustPark forces an
	// unconditional park at the first Sync after join so everything after
	// it runs in loop-controlled order. evWaiting (blocked in Wait),
	// evSignalled (a Signal arrived before its Wait) and evWakeAt (the
	// signal's virtual time) are written under the lane lock for a cohort
	// member, and ordered by the evPark token for a freewheeling client.
	evSlot      int32
	evLane      int32
	evLocal     int32
	evPark      chan struct{}
	evBaton     bool
	evMustPark  bool
	evWaiting   bool
	evSignalled bool
	evWakeAt    int64

	// waitNext links the client into the WaitQueue it is queued on.
	waitNext *Client

	// Completion freelist (async.go): recycled handles so steady-state
	// post/poll performs zero heap allocations. completionAllocs counts
	// the handles newCompletion found no free one for and allocated; a
	// caller that drops handles unreleased keeps it climbing.
	free             []*Completion
	completionAllocs int64

	// payloadScratch backs the per-segment payload slice of batched
	// verbs, reused across batches.
	payloadScratch []int

	// offCtx is the reusable MN-side view for offload verbs
	// (offload.go); one per client keeps the verb path allocation-free.
	offCtx MNCtx

	// fl is the per-op flight ledger (nil without a flight recorder).
	// Strictly observational: the ledger records clock deltas the
	// simulation computed anyway, never alters them.
	fl *obs.Flight
}

// NewClient registers a new client on the fabric. Its clock starts at
// the fabric's virtual-time frontier (the latest NIC busy time), so a
// client created after a bulk-load phase joins "now" rather than
// queueing behind history.
func (f *Fabric) NewClient() *Client {
	timeout := f.cfg.VerbTimeout.Nanoseconds()
	if timeout <= 0 {
		timeout = defaultVerbTimeoutNs
	}
	retries := f.cfg.MaxVerbRetries
	if retries <= 0 {
		retries = defaultMaxVerbRetries
	}
	return &Client{
		f:            f,
		id:           f.clientSeq.Add(1),
		now:          f.Frontier(),
		rttNs:        f.cfg.BaseRTT.Nanoseconds(),
		issueNs:      f.cfg.IssueOverhead.Nanoseconds(),
		rpcNs:        f.cfg.RPCServiceTime.Nanoseconds(),
		timeoutNs:    timeout,
		faultRetries: retries,
		evSlot:       -1,
		evPark:       make(chan struct{}, 1),
	}
}

// ID returns the client's fabric-unique identifier.
func (c *Client) ID() int64 { return c.id }

// Now returns the client's virtual clock in nanoseconds.
func (c *Client) Now() int64 { return c.now }

// Advance adds local (CN-side) compute time to the client's clock.
//
//chime:noalloc
func (c *Client) Advance(ns int64) {
	if ns > 0 {
		c.now += ns
		c.fl.ChargeActive(ns)
	}
}

// SetFlight attaches a per-op flight recording handle (obs.Flight) to
// the client: verb timing and local advances are charged into the
// ledger of whatever op the handle has open. Purely observational —
// virtual clocks are bit-identical with and without a flight.
func (c *Client) SetFlight(fl *obs.Flight) { c.fl = fl }

// Flight returns the client's flight handle (nil when recording is
// off). Layers above use it to bracket ops and label phases.
func (c *Client) Flight() *obs.Flight { return c.fl }

// JoinCohort enrolls the client in the fabric's cohort scheduler
// (eventloop.go): its verbs will stay within one quantum of every other
// cohort member and run in virtual-clock order, which keeps the NIC
// queueing model faithful when many simulated clients share few host
// CPUs. Benchmark cohorts must join before issuing measured operations
// and call LeaveCohort when done. A member's goroutine should Sync
// before it first touches state it shares with other members.
func (c *Client) JoinCohort() {
	if !c.gated {
		c.gated = true
		c.f.loop.join(c)
	}
}

// LeaveCohort withdraws the client from the cohort.
func (c *Client) LeaveCohort() {
	if c.gated {
		c.gated = false
		c.f.loop.leave(c)
	}
}

// shard picks the NIC shard this client's verbs are charged to. A
// cohort member uses its lane's shard (lane-private NIC state, the
// basis of parallel-deterministic execution); freewheeling clients hash
// by ID so bootstrap loaders spread across shards. With one shard
// (Config.Lanes <= 1) this is always 0.
//
//chime:noalloc
func (c *Client) shard() int32 {
	if c.f.shards == 1 {
		return 0
	}
	if c.gated && c.evSlot >= 0 {
		return c.evLane
	}
	return int32(c.id % int64(c.f.shards))
}

// Sync blocks a cohort member until its clock is inside the cohort
// window; freewheeling clients pass straight through. Every verb syncs
// before it is issued and again when its completion moves the clock, so
// a member's clock crosses the window edge only inside the verb API and
// parks there: what it does between verbs — cache, combiner, lock table
// — it does at a clock inside the window, after every member that is
// further behind. The first Sync after JoinCohort parks unconditionally,
// and from then on the member runs only when the scheduler says so — so
// a goroutine that touches state shared between members before its
// first verb syncs first, or it touches that state in host order.
//
//chime:noalloc
func (c *Client) Sync() {
	if c.gated && (c.evMustPark || c.now >= c.f.loop.window) {
		c.f.loop.park(c)
	}
}

// Wait blocks the caller until another client calls Signal on it, and
// returns with the caller's clock at max(its own, the signal's time):
// waiting is an event on the virtual timeline, not on the host's. The
// difference is charged to the flight ledger's active phase. A cohort
// member stays a member while it waits: it hands its lane's baton on
// and stops holding the window back, and resumes in clock order once
// signalled. Every Wait is matched by exactly one Signal; a Signal that
// arrives first (the waiter has published itself to the signaller but
// not yet blocked) is kept, not lost.
//
//chime:noalloc
func (c *Client) Wait() {
	if c.gated {
		c.f.loop.wait(c)
	} else {
		<-c.evPark
	}
	if at := c.evWakeAt; at > c.now {
		c.fl.ChargeActive(at - c.now)
		c.now = at
	}
}

// Signal wakes w, which is in (or about to enter) Wait, at virtual time
// at — the signaller's clock plus whatever the wake-up costs. w must
// have published itself to the caller through a lock both hold in turn,
// and must not change cohort membership between publishing and waking.
//
//chime:noalloc
func (c *Client) Signal(w *Client, at int64) {
	if w.gated {
		w.f.loop.signal(c, w, at)
		return
	}
	w.evWakeAt = at
	w.evPark <- struct{}{}
}

// WaitQueue is a FIFO of clients that are about to Wait, linked through
// the clients themselves — a client waits in one place at a time — so
// queuing allocates nothing. The zero value is empty. The lock that
// guards what the clients wait for guards the queue.
type WaitQueue struct {
	head, tail *Client
	n          int
}

// Len returns the number of queued clients.
func (q *WaitQueue) Len() int { return q.n }

// Push appends c.
//
//chime:noalloc
func (q *WaitQueue) Push(c *Client) {
	if q.tail == nil {
		q.head = c
	} else {
		q.tail.waitNext = c
	}
	q.tail = c
	q.n++
}

// Pop removes and returns the longest-queued client, nil when empty.
//
//chime:noalloc
func (q *WaitQueue) Pop() *Client {
	c := q.head
	if c == nil {
		return nil
	}
	q.head, c.waitNext = c.waitNext, nil
	if q.head == nil {
		q.tail = nil
	}
	q.n--
	return c
}

// parkKey is the clock a parked or signalled client resumes at.
//
//chime:noalloc
func (c *Client) parkKey() int64 { return max(c.now, c.evWakeAt) }

// Stats returns a snapshot of the client's traffic counters.
func (c *Client) Stats() ClientStats { return c.stats }

// ResetStats zeroes the traffic counters, including Posted (the count
// restarts for the new measurement window). The clock keeps running and
// in-flight completions remain in flight: MaxInflight is re-seeded to
// the current pipeline depth, so verbs already posted still count
// toward the new window's maximum.
func (c *Client) ResetStats() {
	c.stats = ClientStats{}
	c.stats.MaxInflight = c.inflight
}

// Fabric returns the fabric this client is attached to.
func (c *Client) Fabric() *Fabric { return c.f }

// finish advances the client past a round trip that completed at the NIC
// at nicDone (two-sided RPCs, which have no posted form).
//
//chime:noalloc
func (c *Client) finish(nicDone int64) {
	c.now = nicDone + c.rttNs
	c.Sync()
}

// Read fetches len(buf) bytes from the remote address into buf using a
// one-sided READ. Individual 64-byte lines are copied atomically, but a
// multi-line transfer is not atomic as a whole: concurrent writers can
// interleave at line boundaries, so readers must validate with version
// checks, exactly as on real RDMA hardware.
//
//chime:noalloc
func (c *Client) Read(a GAddr, buf []byte) error {
	h, err := c.PostRead(a, buf)
	if err != nil {
		return err
	}
	c.Poll(h)
	c.Release(h)
	return nil
}

// ReadBatch issues several READs as one doorbell batch: the client pays
// a single round trip while the NIC services every segment. All
// addresses must live on the same MN (the common case in the paper:
// wrap-around segments of one node).
//
//chime:noalloc
func (c *Client) ReadBatch(addrs []GAddr, bufs [][]byte) error {
	h, err := c.PostReadBatch(addrs, bufs)
	if err != nil {
		return err
	}
	c.Poll(h)
	c.Release(h)
	return nil
}

// Write stores data at the remote address using a one-sided WRITE.
//
//chime:noalloc
func (c *Client) Write(a GAddr, data []byte) error {
	h, err := c.PostWrite(a, data)
	if err != nil {
		return err
	}
	c.Poll(h)
	c.Release(h)
	return nil
}

// WriteBatch issues several WRITEs as one doorbell batch (one round
// trip). Used for wrap-around hop-range write-back and the combined
// "write entry + unlock" pattern from Sherman and CHIME.
//
//chime:noalloc
func (c *Client) WriteBatch(addrs []GAddr, datas [][]byte) error {
	h, err := c.PostWriteBatch(addrs, datas)
	if err != nil {
		return err
	}
	c.Poll(h)
	c.Release(h)
	return nil
}

// CAS atomically compares the 8-byte word at a with old and, when equal,
// replaces it with new. It returns the value observed before the swap
// and whether the swap happened. Word encoding is little-endian.
//
//chime:noalloc
func (c *Client) CAS(a GAddr, old, new uint64) (uint64, bool, error) {
	return c.MaskedCAS(a, old, new, ^uint64(0), ^uint64(0))
}

// MaskedCAS is the RDMA extended atomic used by CHIME's vacancy-bitmap
// piggybacking (§4.2.1): compare only the bits under cmpMask, swap only
// the bits under swapMask, and return the full previous word either way.
//
//chime:noalloc
func (c *Client) MaskedCAS(a GAddr, cmp, swap, cmpMask, swapMask uint64) (uint64, bool, error) {
	h, err := c.PostMaskedCAS(a, cmp, swap, cmpMask, swapMask)
	if err != nil {
		return 0, false, err
	}
	c.Poll(h)
	prev, ok := h.CASResult()
	c.Release(h)
	return prev, ok, nil
}

// FetchAdd atomically adds delta to the 8-byte word at a and returns the
// previous value (RDMA FETCH_AND_ADD).
//
//chime:noalloc
func (c *Client) FetchAdd(a GAddr, delta uint64) (uint64, error) {
	h, err := c.PostFetchAdd(a, delta)
	if err != nil {
		return 0, err
	}
	c.Poll(h)
	prev, _ := h.CASResult()
	c.Release(h)
	return prev, nil
}
