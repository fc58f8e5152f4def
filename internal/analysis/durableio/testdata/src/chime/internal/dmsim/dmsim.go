// Fixture: the fabric wants demand-zero memory for its pools, but the
// mapping lives in internal/hostmem. Reaching for the kernel from the
// simulator itself is still reported.
package dmsim

import (
	"syscall" // want `import "syscall" \(raw host syscalls\): host I/O is confined to internal/folio, internal/hostmem and cmd/`
)

func pool(n int) []byte {
	b, _ := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	return b
}
