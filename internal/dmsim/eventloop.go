package dmsim

import (
	"math"
	"sync"
	"sync/atomic"

	"chime/internal/dmsim/sched"
)

// evLoop is the cohort scheduler: the one mechanism that orders the
// verbs of concurrently simulated clients on the virtual timeline.
//
// Why order at all: the NIC's FIFO queueing recurrence (completion =
// max(arrival, free) + service) is only faithful when verbs arrive in
// nondecreasing virtual-time order. Goroutines on a small host run in
// long real-time slices, so an unsynchronized cohort would present
// arrivals wildly out of order: one client's entire run executes first,
// pushing the NIC's busy horizon far past the epoch, and every later
// client appears to queue behind history that "hasn't happened yet".
//
// The window contract: a cohort member may only issue verbs while its
// virtual clock is inside the current window [0, window). A member that
// reaches the edge parks; when every member has parked the window opens
// one quantum (Config.QuantumRTTs base RTTs) past the slowest of them.
// Inside a window, members run in clock order:
//
//   - Parked members sit in a per-lane event calendar (sched.Calendar),
//     a min-heap on (virtual clock, slot). A window advance pops exactly
//     one member per lane, so the per-window wakeup cost is O(lanes).
//   - Members are partitioned across lanes by join order. Within a
//     lane, exactly one member runs at a time — a baton handed from the
//     parking member to the calendar's next entry, the member whose
//     clock is furthest behind. Across lanes, members run in parallel
//     against lane-private NIC shards (nic.go), so the only cross-lane
//     interactions are the quantum-boundary barriers and whatever
//     shared state the workload itself touches.
//   - The window advances when every member is parked or waiting (the
//     running count hits zero): the last to stop becomes the barrier
//     leader, computes min(parked clocks) + quantum, and seeds each
//     lane's baton.
//   - Waiting on another client is an event on the same timeline
//     (Client.Wait / Client.Signal): the waiter hands its baton on and
//     holds nothing back, and the signaller re-files it at the clock the
//     wake-up happens at — into the running window when the signaller
//     holds that lane's baton, so a handover costs no virtual time the
//     model did not ask for.
//
// Determinism: lane assignment (join order), intra-lane execution order
// (calendar pop order, a function of the set of parked clocks), NIC
// shard state (lane-private) and window arithmetic (min over parked
// clocks) are all pure functions of the simulation's virtual-time
// history, so a cohort replays bit-identically for the same seed
// regardless of GOMAXPROCS or host scheduling — on one lane without
// qualification once every member has parked for the first time (only
// one member runs at a time), on several lanes as long as members of
// different lanes touch disjoint state within a window. Members that
// race on the same remote line or CN structure across lanes within one
// window keep exactly the relaxed semantics real hardware gives them.
type evLoop struct {
	quantum int64
	nlanes  int

	// mu serializes membership transitions (join/leave) and barrier
	// advances against each other.
	mu    sync.Mutex
	seq   int32 // next dense cohort slot, guarded by mu
	lanes []evLane

	// window is the exclusive upper bound of runnable virtual time. It
	// is written only by a barrier leader while no member is running;
	// running members read it through the happens-before edge of the
	// token channel that woke them.
	window int64

	// running counts members that are neither parked nor waiting. The
	// member that decrements it to zero leads the next barrier.
	running atomic.Int64
}

// evLane is one execution lane: the calendar of parked members, the
// slot→client table, and the pending list. lane.mu guards all three; it
// is uncontended in steady state (one running member per lane) and only
// sees real contention during the initial descent, before the first
// barrier establishes the baton discipline.
//
// pending exists for determinism: the baton holder is the lane's only
// runner, so what it files is in the calendar when it next pops. Anyone
// else — a member parking before it ever held the baton, a signaller on
// another lane or outside the cohort — files at a host-chosen moment
// relative to the baton holder's pops. Those entries are staged here
// and enter the calendar at the next barrier, when nobody pops.
type evLane struct {
	mu      sync.Mutex
	cal     sched.Calendar
	clients []*Client
	pending []int32
	_       [64]byte // keep lanes off each other's cache lines
}

// stage files a slot on the pending list. Caller holds lane.mu.
//
//chime:noalloc
func (lane *evLane) stage(s int32) {
	//lint:allow noalloc pending retains capacity across barriers
	lane.pending = append(lane.pending, s)
}

func newEvLoop(quantum int64, nlanes int) *evLoop {
	return &evLoop{quantum: quantum, nlanes: nlanes, lanes: make([]evLane, nlanes)}
}

// join enrolls a client. First-time members get a dense slot (join
// order is the deterministic lane assignment); rejoining members keep
// theirs. The member counts as running until it first parks, and its
// first sync parks unconditionally so nothing it does afterwards runs
// before the first barrier establishes deterministic lane order.
//
//chime:coldalloc first-time enrollment grows the lane's slot tables
func (l *evLoop) join(c *Client) {
	l.mu.Lock()
	if c.evSlot < 0 {
		c.evSlot = l.seq
		l.seq++
		c.evLane = c.evSlot % int32(l.nlanes)
		c.evLocal = c.evSlot / int32(l.nlanes)
		lane := &l.lanes[c.evLane]
		lane.mu.Lock()
		lane.cal.Grow(int(c.evLocal) + 1)
		for int(c.evLocal) >= len(lane.clients) {
			lane.clients = append(lane.clients, nil)
		}
		lane.clients[c.evLocal] = c
		lane.mu.Unlock()
	}
	c.evBaton = false
	c.evMustPark = true
	l.running.Add(1)
	l.mu.Unlock()
}

// leave withdraws the (currently running) caller: hand the lane baton
// to the next parked member of the window, and if the caller was the
// last runner, lead a barrier so the parked survivors keep advancing.
func (l *evLoop) leave(c *Client) {
	l.mu.Lock()
	lane := &l.lanes[c.evLane]
	lane.mu.Lock()
	l.passBaton(lane, c)
	lane.mu.Unlock()
	if l.running.Add(-1) == 0 {
		l.advanceLocked()
	}
	l.mu.Unlock()
}

// passBaton hands c's baton, if it holds one, to the next member parked
// inside the window. Caller holds lane.mu.
//
//chime:noalloc
func (l *evLoop) passBaton(lane *evLane, c *Client) {
	if c.evBaton {
		c.evBaton = false
		if s := lane.cal.PopBelow(l.window); s != sched.NoSlot {
			l.grant(lane, s)
		}
	}
}

// park is the scheduler half of Client.Sync, for a member whose clock
// has reached the window edge (or that has not parked since it joined):
// the baton holder files itself in the calendar and hands the baton on;
// anyone else is staged for the next barrier.
//
//chime:noalloc
func (l *evLoop) park(c *Client) {
	lane := &l.lanes[c.evLane]
	lane.mu.Lock()
	if c.evBaton {
		lane.cal.Push(c.evLocal, c.now)
		l.passBaton(lane, c)
	} else {
		lane.stage(c.evLocal)
	}
	lane.mu.Unlock()
	l.block(c)
}

// wait is the scheduler half of Client.Wait: the caller stays a member
// but leaves the run order — it is in no calendar while it waits, so it
// never holds the window back — until a signal re-files it. A signal
// that already arrived is consumed without blocking.
//
//chime:noalloc
func (l *evLoop) wait(c *Client) {
	lane := &l.lanes[c.evLane]
	lane.mu.Lock()
	if c.evSignalled {
		c.evSignalled = false
		lane.mu.Unlock()
		return
	}
	c.evWaiting = true
	l.passBaton(lane, c)
	lane.mu.Unlock()
	l.block(c)
}

// block stops counting the caller as running — the last runner leads
// the barrier — and sleeps until a baton or barrier wakes it. The
// caller returns runnable: its clock is inside the (possibly advanced)
// window.
//
//chime:noalloc
func (l *evLoop) block(c *Client) {
	if l.running.Add(-1) == 0 {
		l.barrier()
	}
	<-c.evPark
	c.evMustPark = false
}

// signal is the scheduler half of Client.Signal: wake cohort member w
// at virtual time at. A waiter that has not blocked yet keeps the
// signal for its Wait to find. A blocked one is re-filed at max(its
// clock, at): straight into the calendar when the signaller holds the
// lane's baton, so the waiter can run in the same window; through
// pending otherwise, and then the signaller leads the barrier itself if
// nobody is left running to do it.
//
//chime:noalloc
func (l *evLoop) signal(from, w *Client, at int64) {
	lane := &l.lanes[w.evLane]
	lane.mu.Lock()
	w.evWakeAt = at
	if !w.evWaiting {
		w.evSignalled = true
		lane.mu.Unlock()
		return
	}
	w.evWaiting = false
	if from.evBaton && from.evLane == w.evLane {
		lane.cal.Push(w.evLocal, w.parkKey())
		lane.mu.Unlock()
		return
	}
	lane.stage(w.evLocal)
	lane.mu.Unlock()
	if l.running.Load() == 0 {
		l.barrier()
	}
}

// grant wakes one parked member: it becomes its lane's runner. The
// running increment happens before the token send so the count can
// never spuriously touch zero while a wake is in flight.
//
//chime:noalloc
func (l *evLoop) grant(lane *evLane, s int32) {
	c := lane.clients[s]
	c.evBaton = true
	l.running.Add(1)
	c.evPark <- struct{}{}
}

// barrier runs advanceLocked if, under the loop lock, still nobody is
// running.
//
//chime:noalloc
func (l *evLoop) barrier() {
	l.mu.Lock()
	if l.running.Load() == 0 {
		l.advanceLocked()
	}
	l.mu.Unlock()
}

// advanceLocked is the barrier: no member is running, so nobody pops.
// Pending entries enter the calendars (in any order: pop order depends
// only on the set), then the window opens one quantum past the slowest
// parked member and exactly one member per lane is woken to seed the
// batons. The lane locks are taken against signallers outside the
// cohort, which may be staging a waiter meanwhile.
//
//chime:noalloc
func (l *evLoop) advanceLocked() {
	min := int64(math.MaxInt64)
	for i := range l.lanes {
		lane := &l.lanes[i]
		lane.mu.Lock()
		for _, s := range lane.pending {
			lane.cal.Push(s, lane.clients[s].parkKey())
		}
		lane.pending = lane.pending[:0]
		if k := lane.cal.MinKey(); k < min {
			min = k
		}
		lane.mu.Unlock()
	}
	if min == math.MaxInt64 {
		return // nobody parked: the cohort drained, or every member waits
	}
	next := min + l.quantum
	if next <= l.window {
		next = l.window + l.quantum
	}
	l.window = next
	for i := range l.lanes {
		lane := &l.lanes[i]
		lane.mu.Lock()
		if s := lane.cal.PopBelow(l.window); s != sched.NoSlot {
			l.grant(lane, s)
		}
		lane.mu.Unlock()
	}
}
