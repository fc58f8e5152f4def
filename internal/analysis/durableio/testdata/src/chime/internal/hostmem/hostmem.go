// Fixture: the one package that maps memory-node pools may talk to the
// kernel.
package hostmem

import "syscall"

func Zeroed(n int) []byte {
	b, _ := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	return b
}
