// Package rdwc implements SMART's read-delegation and write-combining
// technique (OSDI '23, §5.1 of the CHIME paper), which the paper's
// evaluation applies to every index under test: concurrent operations
// on the same key issued from the same compute node are coalesced so
// only one client (the leader) touches the network, and the others
// (followers) adopt its result.
//
//   - Read delegation: while a read of key K is in flight, further reads
//     of K from the same CN wait for the leader's result instead of
//     issuing their own remote reads.
//   - Write combining: while an update of key K is in flight, further
//     updates of K overwrite a pending value; when the writer finishes,
//     the first of the callers that deposited meanwhile writes only the
//     latest pending value remotely, for all of them, and the duty passes
//     on the same way: nobody serves more than one flush.
//
// Virtual-time semantics: a follower's clock advances to the leader's
// completion time (never backward), exactly as if it had waited for the
// in-flight verb. A follower parks in virtual time (dmsim.Client.Wait):
// it stays a member of the fabric's cohort, holds nothing back while it
// waits, and the leader's Signal re-files it at the adopted completion
// time. Both entry points Sync first, so a cohort member reaches the
// combiner's maps in scheduler order, never in host order.
package rdwc

import (
	"sync"

	"chime/internal/dmsim"
	"chime/internal/obs"
)

// readFlight is one in-flight delegated read.
type readFlight struct {
	startAt int64 // leader's virtual clock when the read was issued

	// followers queue here under Combiner.mu until the leader
	// unregisters the flight; it then owns the queue.
	followers dmsim.WaitQueue

	// The result, written by the leader before it signals the first
	// follower and never again.
	val []byte
	err error
}

// writeFlight is one round of a combined write for a key: the callers
// that deposited a value while the write before theirs was in flight,
// and the one flush that serves them all. While a round is being written
// the key's next round collects depositors.
type writeFlight struct {
	startAt int64 // the first leader's virtual clock

	// pending and waiters are guarded by Combiner.mu until the writer
	// before this round seals it by registering the next one.
	pending []byte // latest value deposited for this round to flush
	waiters dmsim.WaitQueue

	// leader is the round's first depositor, named by whoever sealed the
	// round before waking it: the one waiter that flushes instead of
	// adopting a result. The sealer takes it off waiters.
	leader *dmsim.Client

	// err is the flush's result, written by the round's leader before it
	// signals the other waiters and never again. They read it after they
	// wake, so a sealed round's record is left to the collector.
	err error
}

// Combiner coalesces same-key operations from one compute node. All
// methods are safe for concurrent use.
type Combiner struct {
	window int64 // max virtual skew for coalescing, ns

	mu     sync.Mutex
	reads  map[uint64]*readFlight
	writes map[uint64]*writeFlight

	delegated int64 // reads served from a leader's flight
	combined  int64 // updates absorbed into a pending value
	handoffs  int64 // sealed rounds passed to their first depositor

	// Flight records nobody but their leader ever held — a read no
	// follower joined, a write round nobody deposited into: most of them
	// — go round again instead of to the collector.
	freeReads  []*readFlight
	freeWrites []*writeFlight
}

// DefaultWindowNs bounds coalescing to operations whose virtual
// intervals actually overlap the leader's in-flight operation (about
// one full multi-RTT update flight). Without this bound, a leader's
// flight — which spans many scheduler quanta in real time — would
// absorb requests from far ahead in virtual time and serialize hot keys
// behind a single leader chain, the opposite of what delegation does on
// real hardware.
const DefaultWindowNs = 12000

// NewCombiner returns an empty per-CN combiner with the default
// coalescing window.
func NewCombiner() *Combiner {
	return NewCombinerWindow(DefaultWindowNs)
}

// NewCombinerWindow sets an explicit virtual coalescing window.
func NewCombinerWindow(windowNs int64) *Combiner {
	return &Combiner{
		window: windowNs,
		reads:  make(map[uint64]*readFlight),
		writes: make(map[uint64]*writeFlight),
	}
}

// newRead and newWrite hand out a zeroed flight record, recycled when
// there is one. Caller holds c.mu.
func (c *Combiner) newRead(startAt int64) *readFlight {
	n := len(c.freeReads)
	if n == 0 {
		return &readFlight{startAt: startAt}
	}
	fl := c.freeReads[n-1]
	c.freeReads = c.freeReads[:n-1]
	*fl = readFlight{startAt: startAt}
	return fl
}

func (c *Combiner) newWrite(startAt int64) *writeFlight {
	n := len(c.freeWrites)
	if n == 0 {
		return &writeFlight{startAt: startAt}
	}
	fl := c.freeWrites[n-1]
	c.freeWrites = c.freeWrites[:n-1]
	*fl = writeFlight{startAt: startAt}
	return fl
}

// Stats reports how many operations were coalesced.
func (c *Combiner) Stats() (delegatedReads, combinedWrites int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.delegated, c.combined
}

// Handoffs reports how many sealed write rounds were passed to a
// successor: the remote writes combining cost beyond the leaders' own.
func (c *Combiner) Handoffs() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.handoffs
}

// Read performs a delegated read: the first caller for a key becomes
// the leader and runs fn; concurrent callers for the same key wait in
// virtual time and adopt the leader's result and completion time.
func (c *Combiner) Read(dc *dmsim.Client, key uint64, fn func() ([]byte, error)) ([]byte, error) {
	dc.Sync()
	// Record followers as ops in their own right: the leader's nested
	// index op is absorbed by flight reentrancy, and a follower — whose
	// fn never runs — still ledgers its wait as write-combine time.
	if fr := dc.Flight(); fr != nil {
		fr.Begin(obs.OpSearch, dc.Now())
		defer func() { fr.End(dc.Now()) }()
	}
	now := dc.Now()
	c.mu.Lock()
	if fl, ok := c.reads[key]; ok && now <= fl.startAt+c.window && now+c.window >= fl.startAt {
		c.delegated++
		fl.followers.Push(dc)
		c.mu.Unlock()
		wait(dc)
		return fl.val, fl.err
	}
	if _, ok := c.reads[key]; ok {
		// A flight exists but does not overlap this client's virtual
		// interval: bypass and read independently.
		c.mu.Unlock()
		return fn()
	}
	fl := c.newRead(now)
	c.reads[key] = fl
	c.mu.Unlock()

	val, err := fn()

	c.mu.Lock()
	delete(c.reads, key) // no follower can join past this point
	if fl.followers.Len() == 0 {
		c.freeReads = append(c.freeReads, fl)
		c.mu.Unlock()
		return val, err
	}
	c.mu.Unlock()
	fl.val, fl.err = val, err
	signalAll(dc, &fl.followers)
	return val, err
}

// wait parks dc until its leader signals, ledgering the wait as
// write-combine time.
func wait(dc *dmsim.Client) {
	fr := dc.Flight()
	defer fr.SetPhase(fr.SetPhase(obs.PhaseWriteCombine))
	dc.Wait()
}

// signalAll wakes every client queued on q — a queue the caller has made
// its own — at the caller's clock: the completion time they adopt.
func signalAll(dc *dmsim.Client, q *dmsim.WaitQueue) {
	for w := q.Pop(); w != nil; w = q.Pop() {
		dc.Signal(w, dc.Now())
	}
}

// Write performs a combined write: the first caller for a key becomes
// the leader and runs fn with its own value; callers arriving while a
// write is in flight deposit their value in the key's collecting round
// (overwriting earlier pending ones — last writer wins, as in SMART) and
// wait. Whoever finishes a write seals the round that collected behind
// it and wakes that round's first depositor at its own completion clock;
// the woken caller flushes the round's latest value with its own fn,
// wakes the rest of the round, passes the next round on the same way and
// returns. So:
//
//   - a deposited value is never dropped: the key leaves c.writes only
//     under c.mu, with an empty collecting round;
//   - within a round the last depositor wins, and rounds flush in the
//     order they were sealed;
//   - a caller returns only once a remote write of its own value, or of
//     one deposited after it, has completed — with that write's error;
//   - no caller runs fn more than once, however hot the key;
//   - the hand-off is a Signal from the baton holder, so the successor
//     runs in the same window and a cohort replays to the bit.
func (c *Combiner) Write(dc *dmsim.Client, key uint64, value []byte, fn func(v []byte) error) error {
	dc.Sync()
	if fr := dc.Flight(); fr != nil {
		fr.Begin(obs.OpUpdate, dc.Now())
		defer func() { fr.End(dc.Now()) }()
	}
	now := dc.Now()
	c.mu.Lock()
	// Writes combine with any in-flight same-key write that is not in
	// the follower's virtual future: the deposited value is always
	// flushed before the follower resumes, so — unlike delegated reads —
	// there is no staleness bound to respect. Under backlog this is what
	// lets a hot key absorb arbitrarily deep update queues with one
	// remote write per round, as SMART's write combining does.
	fl, ok := c.writes[key]
	if ok && now+c.window >= fl.startAt {
		// Combine: replace the round's pending value and wait for its flush.
		fl.pending = value
		fl.waiters.Push(dc)
		c.combined++
		c.mu.Unlock()
		wait(dc)
		if fl.leader != dc {
			return fl.err
		}
		// The round is sealed and this caller leads it.
		fl.err = fn(fl.pending)
		signalAll(dc, &fl.waiters)
		c.handOff(dc, key)
		return fl.err
	}
	if ok {
		c.mu.Unlock()
		return fn(value) // no virtual overlap: write independently
	}
	c.writes[key] = c.newWrite(now)
	c.mu.Unlock()

	err := fn(value)
	c.handOff(dc, key)
	return err
}

// handOff ends dc's turn as the key's writer, at dc's completion clock.
// If values were deposited meanwhile, the collecting round is sealed —
// depositors from here on collect in the next — and its first depositor
// woken to flush it. If none were, the key is unregistered: under c.mu,
// so no combiner can deposit a value that nobody will ever flush.
func (c *Combiner) handOff(dc *dmsim.Client, key uint64) {
	c.mu.Lock()
	fl := c.writes[key]
	leader := fl.waiters.Pop()
	if leader == nil {
		delete(c.writes, key)
		c.freeWrites = append(c.freeWrites, fl)
		c.mu.Unlock()
		return
	}
	c.writes[key] = c.newWrite(fl.startAt)
	c.handoffs++
	fl.leader = leader
	c.mu.Unlock()
	dc.Signal(leader, dc.Now())
}
