//go:build (linux || darwin || freebsd) && !race

package arena

import (
	"runtime"
	"syscall"
)

// mapAnon maps size bytes of zeroed, private, anonymous memory. On Linux
// MAP_NORESERVE keeps an untouched slab out of the commit charge, so a
// pool sized far beyond its use costs address space only (the flag is
// Linux's; the BSD kernels do not honour it).
func mapAnon(size int) ([]byte, error) {
	flags := syscall.MAP_PRIVATE | syscall.MAP_ANON
	if runtime.GOOS == "linux" {
		flags |= syscall.MAP_NORESERVE
	}
	return syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, flags)
}

func unmapAnon(b []byte) error { return syscall.Munmap(b) }
