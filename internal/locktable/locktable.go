// Package locktable implements Sherman's local lock table (SIGMOD '22),
// which CHIME inherits (§2.2 of the CHIME paper: Sherman "reduces
// lock-fail retries with shared local lock tables"): clients on the same
// compute node serialize on a local queue per remote lock before
// touching the remote lock word. Only the first local contender issues
// the remote CAS; when it releases while local waiters queue, the lock
// is handed over locally — the remote word stays locked and the next
// holder receives the current lock-word payload (CHIME's piggybacked
// vacancy bitmap and argmax) without any network traffic. The remote
// word is only written back when no local contender wants the lock.
//
// Virtual-time semantics: a waiter parks in virtual time
// (dmsim.Client.Wait) — it stays a member of the fabric's cohort and
// holds nothing back while it waits — and the releaser's Signal re-files
// it at the releaser's clock plus a small local handover cost, which is
// exactly the latency a handover costs on real hardware. Acquire Syncs
// first, so a cohort member reaches the table in scheduler order.
package locktable

import (
	"sync"

	"chime/internal/dmsim"
)

// handoverNs is the local CPU cost of passing a lock between clients of
// one CN.
const handoverNs = 200

// lockState is one held slot: its presence in the table is the hold.
// The handover fields are a mailbox of one — only the client at the
// head of the queue is ever handed the slot, and it reads them before
// it can release in turn.
type lockState struct {
	waiters dmsim.WaitQueue // FIFO of local contenders

	word uint64 // lock-word payload carried across the handover
	ok   bool   // false: lock not held remotely; acquire it yourself
}

// Table is one compute node's local lock table. Safe for concurrent use.
type Table struct {
	mu sync.Mutex
	m  map[uint64]lockState // by value: acquiring and queuing allocate nothing

	handovers int64
	acquires  int64
}

// New returns an empty table.
func New() *Table {
	return &Table{m: make(map[uint64]lockState)}
}

// Stats reports total acquisitions and how many were served by local
// handover (no remote CAS).
func (t *Table) Stats() (acquires, handovers int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.acquires, t.handovers
}

// Acquire claims the local slot for a remote lock. It returns
// viaHandover=true with the handed-over lock-word payload when a local
// releaser passed the (still remotely held) lock directly; otherwise the
// caller must acquire the remote lock itself (the slot is reserved for
// it, so same-CN contention is off the wire).
func (t *Table) Acquire(dc *dmsim.Client, addr uint64) (word uint64, viaHandover bool) {
	dc.Sync()
	t.mu.Lock()
	t.acquires++
	st, held := t.m[addr]
	if !held {
		t.m[addr] = lockState{}
		t.mu.Unlock()
		return 0, false
	}
	st.waiters.Push(dc)
	t.m[addr] = st
	t.mu.Unlock()

	dc.Wait()

	t.mu.Lock()
	st = t.m[addr]
	if st.ok {
		t.handovers++
	}
	t.mu.Unlock()
	return st.word, st.ok
}

// HasWaiters reports whether a local contender is queued; releasers use
// it to decide between a combined remote unlock and a local handover.
func (t *Table) HasWaiters(addr uint64) bool {
	return t.Waiters(addr) > 0
}

// Waiters reports how many local contenders are queued on the slot.
func (t *Table) Waiters(addr uint64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.m[addr]
	return st.waiters.Len()
}

// Held reports whether a client of the CN holds addr's slot.
func (t *Table) Held(addr uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, held := t.m[addr]
	return held
}

// ReleaseHandover passes the (still remotely held) lock to the next
// local waiter along with the current lock-word payload. It reports
// false when no waiter was queued after all — the caller must then
// release the remote lock and call ReleaseRemote.
func (t *Table) ReleaseHandover(dc *dmsim.Client, addr uint64, word uint64) bool {
	return t.release(dc, addr, word, true)
}

// ReleaseRemote marks the slot free after the caller released the
// remote lock. A waiter that raced in since the HasWaiters check is
// woken with instructions to acquire remotely itself (the slot passes
// to it).
func (t *Table) ReleaseRemote(dc *dmsim.Client, addr uint64) {
	t.release(dc, addr, 0, false)
}

// release passes the slot to the longest-queued waiter, waking it at the
// releaser's clock plus the handover cost; remote says whether the
// remote lock comes with it. With nobody queued it reports false, and
// the slot is free unless the caller still holds the remote lock.
func (t *Table) release(dc *dmsim.Client, addr uint64, word uint64, remote bool) bool {
	t.mu.Lock()
	st := t.m[addr]
	w := st.waiters.Pop()
	if w == nil {
		if !remote {
			delete(t.m, addr)
		}
		t.mu.Unlock()
		return false
	}
	st.word, st.ok = word, remote
	t.m[addr] = st
	t.mu.Unlock()
	dc.Signal(w, dc.Now()+handoverNs)
	return true
}
