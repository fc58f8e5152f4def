package offroute

import (
	"math"
	"math/bits"
)

// scanReserve caps the result entries (and value bytes) a scan reserves
// up front; a longer scan grows by append, so an arbitrarily large count
// costs nothing until the index actually yields that much.
const scanReserve = 1024

// ScanBuf is the storage a one-sided scan fills for its caller: the
// result and the arena its values are carved from, so a scan costs a
// couple of allocations however many entries it returns — and none when
// the caller hands the buffer of a scan it is done with to the next
// (ScanTo). The zero value is an empty buffer.
type ScanBuf struct {
	Out   []KV
	arena []byte // value bytes of Out; a chunk is only ever appended to
}

// Reset empties the buffer for a scan of up to count results of valSize
// bytes each. The results of the scan before are dead: their storage is
// what the new ones go into. A buffer that has none yet reserves it.
func (b *ScanBuf) Reset(count, valSize int) {
	if b.Out == nil {
		reserve := min(count, scanReserve)
		b.Out = make([]KV, 0, reserve)
		b.arena = make([]byte, 0, reserve*valSize)
	}
	b.Out, b.arena = b.Out[:0], b.arena[:0]
}

// Own copies v into the arena and returns the copy, capped at its own
// length so a caller appending to one result value cannot reach the
// next. A full chunk is left to the values that alias it and a fresh one
// started.
func (b *ScanBuf) Own(v []byte) []byte {
	if cap(b.arena)-len(b.arena) < len(v) {
		b.arena = make([]byte, 0, scanReserve*len(v))
	}
	n := len(b.arena)
	b.arena = append(b.arena, v...)
	return b.arena[n:len(b.arena):len(b.arena)]
}

// Add appends one result, copying its value into the arena: v may alias
// a node image that is about to be refilled.
func (b *ScanBuf) Add(key uint64, v []byte) {
	b.Out = append(b.Out, KV{Key: key, Value: b.Own(v)})
}

// ScanSlot is one in-range entry of the node a scan is collecting: its
// key and where its value is (a slot index, a block number).
type ScanSlot struct {
	Key uint64
	Idx int
}

// SortScratch is the storage SortSlots distributes slots through: one
// per sorting client or MN program scratch, so that a warm sort
// allocates nothing. The zero value is ready to use.
type SortScratch struct {
	tmp  []ScanSlot
	ends []int32 // per bucket: where it starts, then where it ends
}

// grow readies the scratch for n slots. It grows to a power of two, at
// least a default span, so that nodes of a few sizes cost one growth.
//
//chime:coldalloc grows to the largest node the owner sorts, then never again
func (sc *SortScratch) grow(n int) {
	if cap(sc.tmp) < n {
		size := max(64, 1<<bits.Len(uint(n-1)))
		sc.tmp = make([]ScanSlot, size)
		sc.ends = make([]int32, size)
	}
}

const (
	// insertionMax is the longest run sorted by insertion alone.
	insertionMax = 12

	// distributeMin is the fewest slots worth distributing: below it,
	// the passes over the buckets cost more than quicksort does.
	distributeMin = 32

	// bucketMax is the most slots a bucket may hold and still be left to
	// the closing insertion pass; a fuller one is quicksorted first.
	bucketMax = 8
)

// SortSlots orders slots by key. Keys are unique within a node, so the
// order is total and every correct sort returns the same slice. The keys
// a node holds are spread over its key range, so this one distributes
// the slots over len(s) buckets spaced evenly between the least and the
// greatest key — one multiply per slot, through sc — and one insertion
// pass then finishes every bucket at once, at the cost of the few
// inversions inside each. Keys that bunch instead (a bucket holding more
// than bucketMax of them) have that bucket quicksorted first, so no input
// costs more than O(n log n). Fewer than distributeMin slots are
// quicksorted whole. It allocates nothing once sc has grown to the node.
//
//chime:noalloc
func SortSlots(s []ScanSlot, sc *SortScratch) {
	n := len(s)
	if n < distributeMin {
		quickSort(s)
		return
	}
	lo, hi := s[0].Key, s[0].Key
	for _, x := range s[1:] {
		lo, hi = min(lo, x.Key), max(hi, x.Key)
	}
	m := bucketScale(lo, hi, n)
	sc.grow(n)
	tmp, ends := sc.tmp[:n], sc.ends[:n]
	clear(ends)
	for _, x := range s {
		b, _ := bits.Mul64(x.Key-lo, m)
		ends[b]++
	}
	// ends[b] becomes where bucket b starts, and then, as its slots go
	// in, where it ends.
	at, fullest := int32(0), int32(0)
	for b, count := range ends {
		ends[b], at, fullest = at, at+count, max(fullest, count)
	}
	copy(tmp, s)
	for _, x := range tmp {
		b, _ := bits.Mul64(x.Key-lo, m)
		s[ends[b]] = x
		ends[b]++
	}
	if fullest > bucketMax {
		from := int32(0)
		for _, end := range ends {
			if end-from > bucketMax {
				quickSort(s[from:end])
			}
			from = end
		}
	}
	insertionSort(s)
}

// bucketScale returns the m for which bucket(k), the high word of
// (k-lo)·m, is ⌊(k-lo)·n / (hi-lo+1)⌋: below n and non-decreasing in k
// for every k in [lo, hi], which is all the distribution needs.
//
//chime:noalloc
func bucketScale(lo, hi uint64, n int) uint64 {
	width := hi - lo + 1
	switch {
	case width == 0: // [0, MaxUint64]: the divisor is 2^64
		return uint64(n)
	case width <= uint64(n): // no more keys in range than buckets: k-lo-1, clamped at 0, will do
		return math.MaxUint64
	}
	m, _ := bits.Div64(uint64(n), 0, width)
	return m
}

// quickSort is quicksort on the median of three, comparing the integers
// where they stand instead of through a comparator call per pair
// (slices.SortFunc spent a fifth of a scan there): the smaller side by
// recursion, and insertion sort once a run is short.
//
//chime:noalloc
func quickSort(s []ScanSlot) {
	for len(s) > insertionMax {
		m, hi := len(s)/2, len(s)-1
		if s[m].Key < s[0].Key {
			s[m], s[0] = s[0], s[m]
		}
		if s[hi].Key < s[m].Key {
			s[hi], s[m] = s[m], s[hi]
			if s[m].Key < s[0].Key {
				s[m], s[0] = s[0], s[m]
			}
		}
		// The pivot's value is in the slice, so both scans stop inside it.
		pivot, i, j := s[m].Key, 0, hi
		for i <= j {
			for s[i].Key < pivot {
				i++
			}
			for s[j].Key > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i, j = i+1, j-1
			}
		}
		if left, right := s[:j+1], s[i:]; len(left) < len(right) {
			quickSort(left)
			s = right
		} else {
			quickSort(right)
			s = left
		}
	}
	insertionSort(s)
}

//chime:noalloc
func insertionSort(s []ScanSlot) {
	for i := 1; i < len(s); i++ {
		if s[i].Key >= s[i-1].Key {
			continue
		}
		x, j := s[i], i
		for ; j > 0 && x.Key < s[j-1].Key; j-- {
			s[j] = s[j-1]
		}
		s[j] = x
	}
}

// SortedPrefix sorts slots by key and returns the first n of them.
//
//chime:noalloc
func SortedPrefix(slots []ScanSlot, n int, sc *SortScratch) []ScanSlot {
	SortSlots(slots, sc)
	return slots[:min(n, len(slots))]
}
