package htm

import (
	"testing"

	"rhnorec/internal/mem"
)

// Allocation budget for the simulated HTM device: a steady-state hardware
// transaction — Begin, speculative loads and stores, Commit — performs zero
// heap allocations, and so does a hardware abort unwinding through Attempt
// (the abort value is recycled per Txn; the panic/recover pair is
// allocation-free). The read log, the write buffer and their index tables
// are all recycled across Begin calls on the same Txn.
// testing.AllocsPerRun warm-calls the function once, and each test runs a
// few transactions first so lazily-grown structures reach steady size.

func TestZeroAllocTxnReadWrite(t *testing.T) {
	m := mem.New(1 << 14)
	d := NewDevice(m, Config{})
	d.SetActiveThreads(1)
	tc := m.NewThreadCache()
	addrs := make([]mem.Addr, 16)
	for i := range addrs {
		addrs[i] = tc.Alloc(mem.LineWords)
	}
	tx := d.NewTxn()
	run := func() {
		tx.Begin()
		for _, a := range addrs {
			tx.Store(a, tx.Load(a)+1)
		}
		tx.Commit()
	}
	for i := 0; i < 16; i++ {
		run()
	}
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("steady-state hardware txn allocates: %v allocs/run, want 0", avg)
	}
}

// TestZeroAllocTxnReadOnlyLarge covers the footprints that outgrow the
// index's first table: a 32-word read-only transaction (a tree lookup) and a
// 600-line one (a range scan under the default capacity). Once a warm-up
// transaction has grown the tables and the log, neither allocates — and
// neither does the small one when it runs right after the large one, on
// tables the large one sized.
func TestZeroAllocTxnReadOnlyLarge(t *testing.T) {
	m := mem.New(1 << 16)
	d := NewDevice(m, Config{})
	d.SetActiveThreads(1)
	tc := m.NewThreadCache()
	addrs := make([]mem.Addr, 600)
	for i := range addrs {
		addrs[i] = tc.Alloc(mem.LineWords)
	}
	tx := d.NewTxn()
	for _, n := range []int{32, 600, 32} {
		run := func() {
			tx.Begin()
			for _, a := range addrs[:n] {
				_ = tx.Load(a)
			}
			if got := tx.ReadLineCount(); got != n {
				t.Fatalf("read %d lines, counted %d", n, got)
			}
			tx.Commit()
		}
		run()
		if avg := testing.AllocsPerRun(50, run); avg != 0 {
			t.Fatalf("warmed %d-line read-only txn allocates: %v allocs/run, want 0", n, avg)
		}
	}
}

// TestZeroAllocTxnAbortRecovery proves the abort path recycles too: a
// deterministic capacity abort (third read line against a two-line budget)
// unwinds through Attempt and the immediate retry commits — all without
// allocating.
func TestZeroAllocTxnAbortRecovery(t *testing.T) {
	m := mem.New(1 << 14)
	d := NewDevice(m, Config{ReadCapacityLines: 2})
	d.SetActiveThreads(1)
	tc := m.NewThreadCache()
	addrs := make([]mem.Addr, 3)
	for i := range addrs {
		addrs[i] = tc.Alloc(mem.LineWords)
	}
	tx := d.NewTxn()
	run := func() {
		ab := tx.Attempt(func() {
			_ = tx.Load(addrs[0])
			_ = tx.Load(addrs[1])
			_ = tx.Load(addrs[2]) // third distinct line: capacity abort
		})
		if ab == nil || ab.Code != Capacity {
			t.Fatalf("want capacity abort, got %v", ab)
		}
		if ab := tx.Attempt(func() {
			tx.Store(addrs[0], tx.Load(addrs[0])+1)
		}); ab != nil {
			t.Fatalf("retry aborted: %v", ab)
		}
	}
	for i := 0; i < 16; i++ {
		run()
	}
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("abort/recover cycle allocates: %v allocs/run, want 0", avg)
	}
}

// TestZeroAllocTxnShapes is the allocation gate of the BenchmarkTxn*
// benchmarks: the step each of them times performs zero heap allocations
// once a few warm-up steps have grown the read log and its index.
func TestZeroAllocTxnShapes(t *testing.T) {
	for _, shape := range txnShapes {
		t.Run(shape.name, func(t *testing.T) {
			step := shape.build(t)
			for i := 0; i < 16; i++ {
				step()
			}
			if avg := testing.AllocsPerRun(100, step); avg != 0 {
				t.Fatalf("BenchmarkTxn%s's step allocates: %v allocs/run, want 0", shape.name, avg)
			}
		})
	}
}
