//go:build linux && !race

package hostmem

import "syscall"

// Mapped reports whether Zeroed hands out kernel mappings in this build:
// on linux, and not under the race detector, which watches the Go heap
// only — a pool it cannot see would turn every -race test of the MN
// memory contract into a test that cannot fail.
const Mapped = true

// sysMap asks for n bytes of private anonymous memory, nil if refused.
// MAP_NORESERVE is what lets a pool be larger than the host: without it
// the default overcommit heuristic refuses a 64 GiB mapping on a 16 GB
// machine, with it the mapping costs address space until it is written.
func sysMap(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil
	}
	return b
}

// sysDrop discards the mapping's pages; on Linux the next read of a
// private anonymous page so dropped is zero-filled, which is the whole
// contract of Reset (other kernels treat the advice as a hint and may
// keep the contents, hence the linux build constraint).
func sysDrop(b []byte) bool {
	return syscall.Madvise(b, syscall.MADV_DONTNEED) == nil
}

// sysUnmap can only fail on a range that is not a mapping: a bug here.
func sysUnmap(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic("hostmem: munmap: " + err.Error())
	}
}
