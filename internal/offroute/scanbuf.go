package offroute

import (
	"cmp"
	"slices"
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

// SortSlots orders slots by key.
func SortSlots(slots []ScanSlot) {
	slices.SortFunc(slots, func(a, b ScanSlot) int { return cmp.Compare(a.Key, b.Key) })
}

// SortedPrefix sorts slots by key and returns the first n of them.
func SortedPrefix(slots []ScanSlot, n int) []ScanSlot {
	SortSlots(slots)
	return slots[:min(n, len(slots))]
}
