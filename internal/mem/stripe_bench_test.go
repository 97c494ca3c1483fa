package mem

import (
	"sync/atomic"
	"testing"
)

// The striping microbenchmarks quantify the satellite claim that plain
// operations on distinct stripes no longer contend: each parallel worker
// hammers its own line, either spread across stripes (distinct) or folded
// onto one stripe (shared — lines l and l+Stripes collide by construction).
// Compare:
//
//	go test ./internal/mem -bench 'PlainOps.*Stripe' -cpu 1,4,8
//
// Only the shared-stripe case serializes on one mutex.

func benchPlainOps(b *testing.B, m *Memory, nextLine func(worker int) uint64) {
	var worker atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		id := int(worker.Add(1) - 1)
		a := Addr(nextLine(id) * LineWords)
		i := uint64(0)
		for pb.Next() {
			switch i % 4 {
			case 0, 1:
				m.StorePlain(a, i)
			case 2:
				m.AddPlain(a+1, 1)
			case 3:
				m.CASPlain(a+2, m.LoadPlain(a+2), i)
			}
			i++
		}
	})
}

func BenchmarkPlainOpsDistinctStripes(b *testing.B) {
	m := New(1 << 20)
	// Worker w owns line w+1: consecutive lines land on consecutive
	// stripes, so every worker mutates a different stripe.
	benchPlainOps(b, m, func(w int) uint64 { return uint64(w + 1) })
}

func BenchmarkPlainOpsSharedStripe(b *testing.B) {
	m := New(1 << 20)
	// Worker w owns line (w+1)*Stripes: distinct lines, identical stripe —
	// all plain ops funnel through one seqlock and one mutex.
	benchPlainOps(b, m, func(w int) uint64 { return uint64(w+1) * Stripes })
}
