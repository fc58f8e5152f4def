package offroute

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

// SortSlots orders slots by key. Keys are unique within a node, so the
// order is total and every correct sort returns the same slice; this one
// compares the integers where it stands instead of through a comparator
// call per pair (slices.SortFunc spent a fifth of a scan there):
// quicksort on the median of three, the smaller side by recursion, and
// insertion sort once a run is short. It allocates nothing.
func SortSlots(s []ScanSlot) {
	for len(s) > 12 {
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
			SortSlots(left)
			s = right
		} else {
			SortSlots(right)
			s = left
		}
	}
	for i := 1; i < len(s); i++ {
		x, j := s[i], i
		for ; j > 0 && x.Key < s[j-1].Key; j-- {
			s[j] = s[j-1]
		}
		s[j] = x
	}
}

// SortedPrefix sorts slots by key and returns the first n of them.
func SortedPrefix(slots []ScanSlot, n int) []ScanSlot {
	SortSlots(slots)
	return slots[:min(n, len(slots))]
}
