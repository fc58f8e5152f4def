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
//     updates of K overwrite a pending value; when the leader finishes
//     it (or a successor) writes only the latest pending value remotely.
//
// Virtual-time semantics: a follower's clock advances to the leader's
// completion time (never backward), exactly as if it had waited for the
// in-flight verb. Followers Suspend from the fabric's time gate while
// blocked so they do not stall the window, and Resume at the adopted
// completion time.
package rdwc

import (
	"sync"

	"chime/internal/dmsim"
	"chime/internal/obs"
)

// readFlight is one in-flight delegated read.
type readFlight struct {
	startAt int64 // leader's virtual clock when the read was issued

	// done is closed once the result below is in. The first follower
	// creates it, under Combiner.mu: most flights never get one, and their
	// leader allocates nothing for followers that did not come.
	done chan struct{}

	// The result, published under Combiner.mu as the leader unregisters.
	val    []byte
	err    error
	doneAt int64 // leader's virtual completion time
}

// writeFlight is one in-flight combined write for a key.
type writeFlight struct {
	startAt int64

	mu      sync.Mutex
	pending []byte // latest value queued behind the in-flight write
	waiters []chan writeResult
}

type writeResult struct {
	err    error
	doneAt int64
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

// Stats reports how many operations were coalesced.
func (c *Combiner) Stats() (delegatedReads, combinedWrites int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.delegated, c.combined
}

// Read performs a delegated read: the first caller for a key becomes
// the leader and runs fn; concurrent callers for the same key block
// (suspended from the time gate) and adopt the leader's result and
// completion time.
func (c *Combiner) Read(dc *dmsim.Client, key uint64, fn func() ([]byte, error)) ([]byte, error) {
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
		if fl.done == nil {
			fl.done = make(chan struct{})
		}
		done := fl.done
		c.mu.Unlock()
		fr := dc.Flight()
		prev := fr.SetPhase(obs.PhaseWriteCombine)
		suspended := dc.Suspend()
		<-done
		if suspended {
			dc.Resume(fl.doneAt)
		} else if fl.doneAt > dc.Now() {
			dc.Advance(fl.doneAt - dc.Now())
		}
		fr.SetPhase(prev)
		return fl.val, fl.err
	}
	if _, ok := c.reads[key]; ok {
		// A flight exists but does not overlap this client's virtual
		// interval: bypass and read independently.
		c.mu.Unlock()
		return fn()
	}
	fl := &readFlight{startAt: now}
	c.reads[key] = fl
	c.mu.Unlock()

	val, err := fn()

	c.mu.Lock()
	fl.val, fl.err, fl.doneAt = val, err, dc.Now()
	delete(c.reads, key)
	done := fl.done // no follower can join, or create it, past this point
	c.mu.Unlock()
	if done != nil {
		close(done)
	}
	return val, err
}

// Write performs a combined write: the first caller for a key becomes
// the leader and runs fn with its own value; callers arriving while a
// write is in flight deposit their value (overwriting earlier pending
// ones — last writer wins, as in SMART) and wait. When the leader
// finishes, it writes the latest pending value too, so every combined
// caller's durability obligation is met with at most two remote writes.
func (c *Combiner) Write(dc *dmsim.Client, key uint64, value []byte, fn func(v []byte) error) error {
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
	// lets a hot key absorb arbitrarily deep update queues with O(1)
	// remote writes per flight lifetime, as SMART's write combining does.
	if fl, ok := c.writes[key]; ok && now+c.window >= fl.startAt {
		// Combine: replace the pending value and wait for a flush.
		ch := make(chan writeResult, 1)
		fl.mu.Lock()
		fl.pending = value
		fl.waiters = append(fl.waiters, ch)
		fl.mu.Unlock()
		c.combined++
		c.mu.Unlock()

		fr := dc.Flight()
		prev := fr.SetPhase(obs.PhaseWriteCombine)
		suspended := dc.Suspend()
		res := <-ch
		if suspended {
			dc.Resume(res.doneAt)
		} else if res.doneAt > dc.Now() {
			dc.Advance(res.doneAt - dc.Now())
		}
		fr.SetPhase(prev)
		return res.err
	}
	if _, ok := c.writes[key]; ok {
		c.mu.Unlock()
		return fn(value) // no virtual overlap: write independently
	}
	fl := &writeFlight{startAt: now}
	c.writes[key] = fl
	c.mu.Unlock()

	err := fn(value)

	// Flush pending rounds until no more values were combined while we
	// were writing. The flight is only unregistered under c.mu once it
	// is provably drained, so no combiner can deposit a value that
	// nobody will ever flush.
	for {
		c.mu.Lock()
		fl.mu.Lock()
		if fl.pending == nil && len(fl.waiters) == 0 {
			delete(c.writes, key)
			fl.mu.Unlock()
			c.mu.Unlock()
			return err
		}
		pending := fl.pending
		waiters := fl.waiters
		fl.pending = nil
		fl.waiters = nil
		fl.mu.Unlock()
		c.mu.Unlock()

		var flushErr error
		if pending != nil {
			flushErr = fn(pending)
		}
		res := writeResult{err: flushErr, doneAt: dc.Now()}
		for _, ch := range waiters {
			ch <- res
		}
	}
}
