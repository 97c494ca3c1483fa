//go:build !(linux || darwin || dragonfly || freebsd || netbsd || openbsd) || race

package mem

// mapping is never made on this build: the arena is Go heap. The race
// detector sees only heap memory, so the race build keeps it too, and with
// it the race check of zeroRange's plain clear.
type mapping struct{}

// newWords returns a zero arena of n words from the heap.
func newWords(n int) ([]uint64, *mapping) { return make([]uint64, n), nil }
