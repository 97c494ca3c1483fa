package persist

import (
	"fmt"
	"testing"

	"rhnorec/internal/mem"
)

// BenchmarkDurableCommit prices what the log adds to one durable commit:
// Append of a one- or four-pair write set, then WaitDurable on it, single
// threaded on a MemBackend, so every iteration runs a group-fsync pass of its
// own. It must not allocate: buffers are reused and MemBackend chunk growth
// is under one allocation per 500 commits, so with -benchtime of at least
// 20000x allocs/op reads 0. The log is reopened on a fresh backend every
// durCommitReopen commits (timer stopped) to bound the in-memory disk.
func BenchmarkDurableCommit(b *testing.B) {
	const (
		durCommitReopen = 1 << 16
		keys            = 4096 // one line each
	)
	for _, pairs := range []int{1, 4} {
		b.Run(fmt.Sprintf("pairs=%d", pairs), func(b *testing.B) {
			open := func() *Log {
				l, _, err := Open(Options{Backend: NewMemBackend(), Lo: 8, Hi: 8 + keys*mem.LineWords},
					func(mem.Addr, uint64) {}, func(mem.Addr) uint64 { return 0 })
				if err != nil {
					b.Fatal(err)
				}
				return l
			}
			l := open()
			writes := make([]mem.WriteEntry, pairs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%durCommitReopen == 0 {
					b.StopTimer()
					if err := l.Close(); err != nil {
						b.Fatal(err)
					}
					l = open()
					b.StartTimer()
				}
				for p := range writes {
					k := (i*pairs + p) % keys
					writes[p] = mem.WriteEntry{Addr: mem.Addr(8 + k*mem.LineWords), Value: uint64(i)}
				}
				l.Append(uint64(i), writes)
				if err := l.WaitDurable(l.Appended()); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
