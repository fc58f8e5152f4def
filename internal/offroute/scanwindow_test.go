package offroute

import (
	"math/rand"
	"testing"

	"chime/internal/dmsim"
)

func leafAt(i int) dmsim.GAddr { return dmsim.GAddr{MN: 0, Off: uint64(0x1000 + i*0x400)} }

// leavesAt maps chain indexes to addresses; -1 is an address that is no
// leaf's.
func leavesAt(idx []int) []dmsim.GAddr {
	var as []dmsim.GAddr
	for _, i := range idx {
		if i < 0 {
			i = 1 << 20
		}
		as = append(as, leafAt(i))
	}
	return as
}

// windowRun is what driving a ScanWindow over a model chain leaves
// behind.
type windowRun struct {
	collected   int   // entries the scan returned
	reads       []int // chain index of every leaf read, in posting order
	returned    []int // chain index of every leaf the scan took entries from
	dropped     int   // reads dropped as stale
	maxInflight int
	stales      int
}

// driveWindow plays a scan of count entries over a chain whose leaf i
// holds fills[i] in-range entries and links to leaf i+1, the way an index
// client does: post what Next says, pop, Arrive, drop on stale. named[k]
// is what the parent lists k leaves after the first (an index into the
// chain, or -1 for an address that is no leaf's).
func driveWindow(t *testing.T, span, count int, fills []int, named []int) windowRun {
	t.Helper()
	index := map[dmsim.GAddr]int{}
	for i := range fills {
		index[leafAt(i)] = i
	}
	var run windowRun
	var w ScanWindow[int]
	w.Reset(span, count, leafAt(0), leavesAt(named))
	post := func() {
		for a, ok := w.Next(); ok; a, ok = w.Next() {
			i, isLeaf := index[a]
			if !isLeaf {
				i = -1
			}
			run.reads = append(run.reads, i)
			w.Push(a, i)
			run.maxInflight = max(run.maxInflight, w.n)
		}
	}
	post()
	for {
		addr, i, ok := w.Pop()
		if !ok {
			return run
		}
		if i < 0 || leafAt(i) != addr {
			t.Fatalf("popped %v carrying read %d: a stale read reached the scan", addr, i)
		}
		sibling := dmsim.NilGAddr
		if i+1 < len(fills) {
			sibling = leafAt(i + 1)
		}
		want, stale := w.Arrive(sibling, fills[i])
		if stale {
			run.stales++
			for _, _, ok := w.Pop(); ok; _, _, ok = w.Pop() {
				run.dropped++
			}
		}
		if want > 0 {
			run.returned = append(run.returned, i)
		}
		run.collected += want
		post()
	}
}

func seq(from, n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = from + i
	}
	return s
}

// TestScanWindowExact: with a parent that tells the truth, on any fills
// and any count, the window reads exactly the leaves the scan returns
// entries from (plus leaves that turn out empty, which nothing could have
// known), in chain order, never more than ScanWindowCap at once, and
// collects what the serial chain would.
func TestScanWindowExact(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 2000; round++ {
		span := []int{4, 16, 64}[r.Intn(3)]
		fills := make([]int, 1+r.Intn(40))
		total := 0
		for i := range fills {
			fills[i] = r.Intn(span + 1)
			if r.Intn(4) > 0 && fills[i] == 0 {
				fills[i] = 1
			}
			total += fills[i]
		}
		count := 1 + r.Intn(span*6)
		named := seq(1, r.Intn(len(fills))) // a prefix of the real successors
		run := driveWindow(t, span, count, fills, named)

		if want := min(count, total); run.collected != want {
			t.Fatalf("round %d: collected %d of %d (chain holds %d)", round, run.collected, count, total)
		}
		if run.stales != 0 || run.dropped != 0 {
			t.Fatalf("round %d: a truthful parent went stale (%d) or cost %d reads", round, run.stales, run.dropped)
		}
		if run.maxInflight > ScanWindowCap {
			t.Fatalf("round %d: %d reads in flight, cap %d", round, run.maxInflight, ScanWindowCap)
		}
		for k, i := range run.reads {
			if i != k {
				t.Fatalf("round %d: read %d was leaf %d: not chain order", round, k, i)
			}
		}
		// Every leaf read is one the serial chain reads too: the scan was
		// still short when the leaf before it had been counted.
		short := count
		for k := range run.reads {
			if short <= 0 {
				t.Fatalf("round %d: span %d count %d fills %v: leaf %d read with the count already reached", round, span, count, fills, k)
			}
			short -= fills[k]
		}
		if short > 0 && len(run.reads) < len(fills) {
			t.Fatalf("round %d: stopped after %d of %d leaves still %d short", round, len(run.reads), len(fills), short)
		}
	}
}

// TestScanWindowLookAhead pins the rule's arithmetic on full leaves: a
// scan of count entries posts ceil(count/span) reads before the first
// arrives — as far as the parent's names and the capacity reach — and one
// read at a time without names.
func TestScanWindowLookAhead(t *testing.T) {
	const span = 16
	full := make([]int, 40)
	for i := range full {
		full[i] = span
	}
	for _, tc := range []struct {
		count, names int
		upfront      int // reads posted before the first Pop
	}{
		{count: 1, names: 39, upfront: 1},
		{count: span, names: 39, upfront: 1},
		{count: span + 1, names: 39, upfront: 2},
		{count: 2 * span, names: 39, upfront: 2},
		{count: 2*span + 1, names: 39, upfront: 3},
		{count: 2*span + 1, names: 1, upfront: 2},
		{count: 2*span + 1, names: 0, upfront: 1},
		{count: 30 * span, names: 39, upfront: ScanWindowCap},
	} {
		var w ScanWindow[struct{}]
		w.Reset(span, tc.count, leafAt(0), leavesAt(seq(1, tc.names)))
		posted := 0
		for a, ok := w.Next(); ok; a, ok = w.Next() {
			if a != leafAt(posted) {
				t.Fatalf("count %d: read %d is %v, want leaf %d", tc.count, posted, a, posted)
			}
			w.Push(a, struct{}{})
			posted++
		}
		if posted != tc.upfront {
			t.Errorf("count %d, %d names: %d reads posted up front, want %d", tc.count, tc.names, posted, tc.upfront)
		}
		run := driveWindow(t, span, tc.count, full, seq(1, tc.names))
		if want := (tc.count + span - 1) / span; len(run.reads) != want || len(run.returned) != want {
			t.Errorf("count %d, %d names: %d leaves read, %d returned from, want %d", tc.count, tc.names, len(run.reads), len(run.returned), want)
		}
		if wantMax := tc.upfront; run.maxInflight != wantMax {
			t.Errorf("count %d, %d names: %d reads in flight at most, want %d", tc.count, tc.names, run.maxInflight, wantMax)
		}
	}
}

// TestScanWindowStale: a parent that predates a split names a leaf that
// is not the chain's next. The scan still returns what the serial chain
// returns; the reads posted past the split leaf are dropped, once; and
// from there on the window is the serial chain.
func TestScanWindowStale(t *testing.T) {
	const span = 8
	fills := []int{5, 5, 5, 5, 5, 5, 5, 5}
	for _, tc := range []struct {
		name    string
		named   []int // what the parent lists after leaf 0
		count   int
		dropped int
		stales  int
	}{
		// Leaf 0 split: the chain's leaf 1 is new, the parent lists 2, 3, …
		{name: "first leaf split, reads in flight", named: []int{2, 3, 4, 5}, count: 2*span + 1, dropped: 2, stales: 1},
		{name: "first leaf split, nothing in flight", named: []int{2, 3, 4, 5}, count: span, dropped: 0, stales: 1},
		// Leaf 1 split: the parent lists 1, 3, 4, …
		{name: "middle leaf split", named: []int{1, 3, 4, 5}, count: 2*span + 1, dropped: 1, stales: 1},
		// Leaf 2, the last one read ahead, split: the parent lists 1, 2, 4, …
		{name: "last looked-ahead leaf split", named: []int{1, 2, 4, 5}, count: 2*span + 1, dropped: 0, stales: 1},
		// The parent names an address that is no leaf at all; it is read
		// ahead, as is leaf 3 behind it.
		{name: "garbage name", named: []int{1, -1, 3}, count: 3 * span, dropped: 2, stales: 1},
		// The chain ends where the parent still lists a leaf.
		{name: "chain shorter than the names", named: []int{1, 2, 3, 4, 5, 6, 7, -1}, count: 100, dropped: 1, stales: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := driveWindow(t, span, tc.count, fills, tc.named)
			total := 0
			for _, f := range fills {
				total += f
			}
			if want := min(tc.count, total); run.collected != want {
				t.Errorf("collected %d, want %d", run.collected, want)
			}
			if run.dropped != tc.dropped || run.stales != tc.stales {
				t.Errorf("dropped %d reads over %d stale verdicts, want %d over %d", run.dropped, run.stales, tc.dropped, tc.stales)
			}
			if got, want := len(run.reads)-run.dropped, len(run.returned); got != want {
				t.Errorf("%d reads kept, %d leaves returned from", got, want)
			}
			for k := 1; k < len(run.returned); k++ {
				if run.returned[k] != run.returned[k-1]+1 {
					t.Errorf("returned from leaves %v: not the chain", run.returned)
				}
			}
		})
	}
}
