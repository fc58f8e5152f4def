// Package hostmem is where the bytes behind a simulated memory node,
// and a large hotspot-buffer heap, come from. A pool is tens of MB to
// tens of GB of which an index touches a sliver, so it is asked of the
// kernel as demand-zero pages instead of the Go heap: nothing is
// zeroed up front, nothing the simulation never touches becomes
// resident, the collector neither scans nor sizes its target by it, and
// forgetting a pool (a crashed MN) is a page-table operation. It is the
// one package besides internal/folio that may talk to the host
// (durableio), and the only one that imports syscall.
package hostmem

import (
	"runtime"
	"unsafe"
)

// Region is n bytes of memory that read zero until written. It is not
// safe for concurrent Reset or Release; reads and writes of Bytes are
// the caller's to order, as with any slice.
type Region struct {
	b      []byte
	mapped bool // b is a kernel mapping (sysMap), not Go heap
}

// Zeroed returns a region of n zero bytes: an anonymous mapping where
// the build has one (Mapped, mmap_linux.go), a Go slice elsewhere or
// when the kernel refuses the mapping.
func Zeroed(n int) *Region { return zeroed(n, true) }

// zeroed is Zeroed with the backing chosen; tests run both through it.
func zeroed(n int, tryMap bool) *Region {
	if tryMap {
		if b := sysMap(n); b != nil {
			r := &Region{b: b, mapped: true}
			// The safety net for a region dropped without Release. Region
			// is a leaf nothing points back to, so no cycle can pin it.
			runtime.SetFinalizer(r, (*Region).Release)
			return r
		}
	}
	return &Region{b: make([]byte, n)}
}

// Bytes is the region's memory, nil after Release. The slice is valid
// only while the Region is reachable and unreleased: keep the Region
// beside any copy of it.
func (r *Region) Bytes() []byte { return r.b }

// Reset returns every byte to zero without touching the untouched:
// a mapping drops its pages, the fallback clears.
func (r *Region) Reset() {
	if r.mapped && sysDrop(r.b) {
		return
	}
	clear(r.b)
}

// Release gives the memory back. Calling it again is a no-op.
func (r *Region) Release() {
	if r.mapped {
		sysUnmap(r.b)
		runtime.SetFinalizer(r, nil)
	}
	r.b, r.mapped = nil, false
}

// SizeOf is the bytes one T takes in an array.
func SizeOf[T any]() int {
	var t T
	return int(unsafe.Sizeof(t))
}

// View is the n Ts at byte offset off of b, aliasing b. T must hold no
// pointers, since the collector does not scan a mapping, and off must be
// a multiple of T's alignment.
func View[T any](b []byte, off, n int) []T {
	var t T
	if n == 0 || off%int(unsafe.Alignof(t)) != 0 || off+n*int(unsafe.Sizeof(t)) > len(b) {
		panic("hostmem: empty, misaligned or out-of-range view")
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[off])), n)
}
