//go:build !linux || race

package hostmem

// Off linux there is no demand-zero mapping with a zero-filling discard,
// and under the race detector a mapping would hide the pool from it:
// every region is a Go slice, and these exist only so the package builds.

const Mapped = false

func sysMap(int) []byte   { return nil }
func sysDrop([]byte) bool { return false }
func sysUnmap([]byte)     {}
