//go:build (linux || darwin || dragonfly || freebsd || netbsd || openbsd) && !race

package mem

import (
	"runtime"
	"syscall"
	"unsafe"
)

// mapping owns an arena mapped outside the Go heap. Only its Memory
// references it, so it becomes unreachable with the Memory and its finalizer
// unmaps the arena. The finalizer sits here and not on the Memory because a
// Memory may be a member of a cycle (through its hook or its persister), and
// the collector never runs the finalizer of a cycle member.
type mapping struct{ b []byte }

// newWords returns a zero arena of n words and the mapping that owns it. The
// arena is an anonymous private mapping: the kernel zero-fills each page on
// its first touch, so a Memory costs the pages that are stored to and no
// clear, and the collector's pacer does not count it as live heap. If mmap
// fails the arena comes from the heap and the mapping is nil.
func newWords(n int) ([]uint64, *mapping) {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]uint64, n), nil
	}
	h := &mapping{b: b}
	// Munmap of a whole mapping Mmap returned cannot fail, and a finalizer
	// has no caller to report to.
	runtime.SetFinalizer(h, func(h *mapping) { _ = syscall.Munmap(h.b) })
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n), h
}
