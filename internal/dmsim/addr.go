package dmsim

import "fmt"

// GAddr is a global address in the memory pool: a memory-node index plus
// a byte offset within that node's region. The zero GAddr (MN 0, offset
// 0) is reserved as the nil address; allocators never hand it out.
type GAddr struct {
	MN  uint8
	Off uint64
}

// NilGAddr is the null remote pointer.
var NilGAddr = GAddr{}

// IsNil reports whether a is the null remote pointer.
func (a GAddr) IsNil() bool { return a == NilGAddr }

// maxOff is the largest offset a packed remote pointer can carry: Pack
// keeps 56 bits for the offset (the high byte holds the MN index).
const maxOff = 1<<56 - 1

// Add returns the address d bytes past a within the same MN. It panics
// when the sum wraps uint64 or leaves the 56-bit packable range — a
// silently truncated pointer would corrupt whatever node it aliases, so
// arithmetic overflow is a simulation bug, never data.
//
//chime:coldalloc allocates only when building the overflow panic
func (a GAddr) Add(d uint64) GAddr {
	off := a.Off + d
	if off < a.Off || off > maxOff {
		panic(fmt.Sprintf("dmsim: GAddr.Add overflow: %v + 0x%x", a, d))
	}
	return GAddr{MN: a.MN, Off: off}
}

// Pack encodes the address into a single uint64 (high byte = MN) so it
// can be stored in 8-byte remote pointers, mirroring how DM indexes pack
// pointers into CAS-able words. Offsets past 56 bits cannot round-trip,
// so Pack panics rather than silently masking them.
func (a GAddr) Pack() uint64 {
	if a.Off > maxOff {
		panic(fmt.Sprintf("dmsim: GAddr.Pack offset 0x%x exceeds 56 bits", a.Off))
	}
	return uint64(a.MN)<<56 | a.Off
}

// UnpackGAddr decodes a packed remote pointer.
func UnpackGAddr(v uint64) GAddr {
	return GAddr{MN: uint8(v >> 56), Off: v & ((1 << 56) - 1)}
}

// PackTagged encodes an MN-0 address plus an 8-bit tag into one
// CAS-able word, reusing the byte Pack spends on the MN index. Super
// blocks use this to store the root pointer and tree level in a single
// atomic word (roots always live on MN 0). Like Pack, it panics instead
// of silently truncating.
func PackTagged(a GAddr, tag uint8) uint64 {
	if a.MN != 0 {
		panic(fmt.Sprintf("dmsim: PackTagged address %v not on MN 0", a))
	}
	if a.Off > maxOff {
		panic(fmt.Sprintf("dmsim: PackTagged offset 0x%x exceeds 56 bits", a.Off))
	}
	return uint64(tag)<<56 | a.Off
}

// UnpackTagged decodes a word packed by PackTagged.
func UnpackTagged(w uint64) (GAddr, uint8) {
	return GAddr{Off: w & maxOff}, uint8(w >> 56)
}

// String formats the address for diagnostics.
func (a GAddr) String() string {
	if a.IsNil() {
		return "nil"
	}
	return fmt.Sprintf("mn%d:0x%x", a.MN, a.Off)
}
