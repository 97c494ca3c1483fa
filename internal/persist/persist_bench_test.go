package persist

import (
	"fmt"
	"testing"

	"rhnorec/internal/mem"
)

// durableCommitter is the world of BenchmarkDurableCommit and
// TestDurableCommitZeroAlloc: a log on a MemBackend over 4096 one-line keys,
// and a recycled write set of pairs entries.
type durableCommitter struct {
	tb     testing.TB
	l      *Log
	writes []mem.WriteEntry
	i      int
}

const durableCommitKeys = 4096

func newDurableCommitter(tb testing.TB, pairs int) *durableCommitter {
	c := &durableCommitter{tb: tb, writes: make([]mem.WriteEntry, pairs)}
	c.open()
	return c
}

func (c *durableCommitter) open() {
	l, _, err := Open(Options{Backend: NewMemBackend(), Lo: 8, Hi: 8 + durableCommitKeys*mem.LineWords},
		func(mem.Addr, uint64) {}, func(mem.Addr) uint64 { return 0 })
	if err != nil {
		c.tb.Fatal(err)
	}
	c.l = l
}

func (c *durableCommitter) close() {
	if err := c.l.Close(); err != nil {
		c.tb.Fatal(err)
	}
}

// commit appends the next write set and waits for it to be durable: single
// threaded, so every commit runs a group-fsync pass of its own.
func (c *durableCommitter) commit() {
	pairs := len(c.writes)
	for p := range c.writes {
		k := (c.i*pairs + p) % durableCommitKeys
		c.writes[p] = mem.WriteEntry{Addr: mem.Addr(8 + k*mem.LineWords), Value: uint64(c.i)}
	}
	c.l.Append(uint64(c.i), c.writes)
	if err := c.l.WaitDurable(c.l.Appended()); err != nil {
		c.tb.Fatal(err)
	}
	c.i++
}

// BenchmarkDurableCommit prices what the log adds to one durable commit:
// Append of a one- or four-pair write set, then WaitDurable on it. The log
// is reopened on a fresh backend every durCommitReopen commits (timer
// stopped) to bound the in-memory disk. TestDurableCommitZeroAlloc holds
// the same commit to zero allocations.
func BenchmarkDurableCommit(b *testing.B) {
	const durCommitReopen = 1 << 16
	for _, pairs := range []int{1, 4} {
		b.Run(fmt.Sprintf("pairs=%d", pairs), func(b *testing.B) {
			c := newDurableCommitter(b, pairs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%durCommitReopen == 0 {
					b.StopTimer()
					c.close()
					c.open()
					b.StartTimer()
				}
				c.commit()
			}
			b.StopTimer()
			c.close()
		})
	}
}

// TestDurableCommitZeroAlloc is the allocation gate of BenchmarkDurableCommit:
// a durable commit must not allocate. Buffers are reused, and MemBackend's
// chunk growth is under one allocation per 500 commits, so over 20 000
// commits testing.AllocsPerRun (an integer average) reads 0, and one
// allocation per commit reads 1.
func TestDurableCommitZeroAlloc(t *testing.T) {
	for _, pairs := range []int{1, 4} {
		t.Run(fmt.Sprintf("pairs=%d", pairs), func(t *testing.T) {
			c := newDurableCommitter(t, pairs)
			defer c.close()
			if avg := testing.AllocsPerRun(20000, c.commit); avg != 0 {
				t.Fatalf("%d-pair durable commit allocates: %v allocs/run, want 0", pairs, avg)
			}
		})
	}
}
