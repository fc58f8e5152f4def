package offroute

import "chime/internal/dmsim"

// ScanWindowCap bounds the whole-leaf reads one scan keeps in flight.
const ScanWindowCap = 8

// ScanWindow is the bookkeeping of a one-sided scan's whole-leaf reads:
// which leaf to read next, and when. It posts nothing itself — R is
// whatever the index client keeps per posted read (its image, its
// completion) — and it obeys two rules.
//
// Exact: a leaf is read only once the scan is certain to return entries
// from it. The chain's next leaf is read when the scan is still short
// and nothing is in flight. A leaf further on is read ahead of time only
// when the cached parent names it and the scan stays short even if every
// read in flight comes back full: need − span × inflight > 0.
//
// Validated against the chain: the parent's names are hints. Each
// arriving leaf's sibling pointer must equal the next address the window
// holds; when it does not — a leaf split since the parent was cached —
// Arrive reports the window stale, the names are forgotten and the reads
// posted past that leaf are the caller's to drop. What remains is the
// serial chain.
type ScanWindow[R any] struct {
	span int // the most entries one leaf yields
	need int // entries the scan is still short of

	// next is the leaf the chain says comes after the last one arrived
	// (the leaf the descent reached, before any has); names are the
	// leaves the parent lists after the last one posted or arrived.
	next  dmsim.GAddr
	names []dmsim.GAddr

	// The reads in flight, in chain order: a ring.
	addrs   [ScanWindowCap]dmsim.GAddr
	reads   [ScanWindowCap]R
	head, n int
}

// Reset starts a scan of count entries at leaf first, on leaves of span
// entries. names are the leaves first's parent lists after it, in chain
// order (nil when there is no parent to ask); the window only reslices
// them.
func (w *ScanWindow[R]) Reset(span, count int, first dmsim.GAddr, names []dmsim.GAddr) {
	*w = ScanWindow[R]{span: span, need: count, next: first, names: names}
}

// Next returns the leaf to read now, if there is one; the caller posts
// the read and Pushes it, then asks again.
func (w *ScanWindow[R]) Next() (dmsim.GAddr, bool) {
	switch {
	case w.need <= 0 || w.n == ScanWindowCap:
		return dmsim.NilGAddr, false
	case w.n == 0:
		if w.next.IsNil() {
			return dmsim.NilGAddr, false
		}
		if len(w.names) > 0 && w.names[0] == w.next {
			w.names = w.names[1:]
		}
		return w.next, true
	case len(w.names) > 0 && w.need > w.span*w.n:
		a := w.names[0]
		w.names = w.names[1:]
		return a, true
	}
	return dmsim.NilGAddr, false
}

// Push records the read of the leaf Next returned as posted.
func (w *ScanWindow[R]) Push(addr dmsim.GAddr, r R) {
	i := (w.head + w.n) % ScanWindowCap
	w.addrs[i], w.reads[i] = addr, r
	w.n++
}

// Pop takes the oldest read in flight; ok is false when none is.
func (w *ScanWindow[R]) Pop() (addr dmsim.GAddr, r R, ok bool) {
	if w.n == 0 {
		return dmsim.NilGAddr, r, false
	}
	var zero R
	addr, r = w.addrs[w.head], w.reads[w.head]
	w.reads[w.head] = zero
	w.head = (w.head + 1) % ScanWindowCap
	w.n--
	return addr, r, true
}

// Arrive takes the leaf whose read was popped last: it holds got
// in-range entries and points at sibling. It reports how many of the
// entries the scan wants, and whether the window went stale — sibling is
// not the leaf the window expected next — in which case the caller drops
// every read still in flight (Pop until empty) before it asks Next.
func (w *ScanWindow[R]) Arrive(sibling dmsim.GAddr, got int) (want int, stale bool) {
	switch {
	case w.n > 0:
		stale = w.addrs[w.head] != sibling
	case len(w.names) > 0:
		stale = w.names[0] != sibling
	}
	if stale {
		w.names = nil
	}
	w.next = sibling
	want = min(got, w.need)
	w.need -= want
	return want, stale
}
