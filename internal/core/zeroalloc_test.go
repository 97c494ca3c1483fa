package core_test

import (
	"testing"

	"rhnorec/internal/core"
	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/rbtree"
	"rhnorec/internal/tm"
)

// This file is the allocation budget for the RH NOrec driver: zero heap
// allocations per steady-state transaction, on the all-hardware fast path
// and on the capacity-bound mixed slow path alike. The first transaction a
// thread runs may allocate (read/write sets, the recycled write buffer, the
// spill maps); after that warm-up, every structure is recycled in place.
// testing.AllocsPerRun itself performs one warm-up call before measuring,
// and each helper below runs a few extra transactions first so lazily-grown
// structures reach their steady size.
//
// Every BenchmarkTxn* benchmark here times a transaction one of these tests
// holds to zero allocations, in the same world: BenchmarkTxnFastPath is
// TestZeroAllocFastPath, BenchmarkTxnMixedSlowPath is
// TestZeroAllocMixedSlowPath's "first write ends the prefix", and
// BenchmarkTxnAuditOverCapacity is TestAuditOverCapacitySoftReads. These
// tests are CI's allocation gate.

// allocWorld builds a single-threaded system and a warmed thread with eight
// line-aligned addresses.
func allocWorld(tb testing.TB, cfg htm.Config, pol tm.RetryPolicy) (tm.Thread, []mem.Addr) {
	tb.Helper()
	m := mem.New(1 << 14)
	dev := htm.NewDevice(m, cfg)
	dev.SetActiveThreads(1)
	sys := core.New(m, dev, pol)
	setup := sys.NewThread()
	addrs := make([]mem.Addr, 8)
	if err := setup.Run(func(tx tm.Tx) error {
		for i := range addrs {
			addrs[i] = tx.Alloc(mem.LineWords)
		}
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	setup.Close()
	th := sys.NewThread()
	tb.Cleanup(func() { th.Close() })
	return th, addrs
}

// fastPathFn reads and writes two lines — comfortably inside any hardware
// capacity, so every commit is an HTM fast-path commit.
func fastPathFn(addrs []mem.Addr) func(tm.Tx) error {
	return func(tx tm.Tx) error {
		v := tx.Load(addrs[0]) + tx.Load(addrs[1])
		tx.Store(addrs[0], v+1)
		return nil
	}
}

// slowPathFn touches four lines, which against a {2 read, 1 write}-line
// hardware budget forces the mixed slow path (prefix + software + postfix)
// on every attempt.
func slowPathFn(addrs []mem.Addr) func(tm.Tx) error {
	return func(tx tm.Tx) error {
		for i := 0; i < 4; i++ {
			tx.Store(addrs[i], tx.Load(addrs[i])+1)
		}
		return nil
	}
}

func requireZeroAllocs(t *testing.T, th tm.Thread, fn func(tm.Tx) error) {
	t.Helper()
	for i := 0; i < 16; i++ { // reach steady state before measuring
		if err := th.Run(fn); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := th.Run(fn); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state transaction allocates: %v allocs/run, want 0", avg)
	}
}

func TestZeroAllocFastPath(t *testing.T) {
	th, addrs := allocWorld(t, htm.Config{}, tm.RetryPolicy{})
	requireZeroAllocs(t, th, fastPathFn(addrs))
}

func TestZeroAllocMixedSlowPath(t *testing.T) {
	t.Run("first write ends the prefix", func(t *testing.T) {
		th, addrs := allocWorld(t,
			htm.Config{ReadCapacityLines: 2, WriteCapacityLines: 1}, tm.RetryPolicy{})
		requireZeroAllocs(t, th, slowPathFn(addrs))
	})
	// Eight one-line reads against a 4-read budget and 6 read lines: the
	// fast path overflows, the prefix commits at its budget, and two read
	// segments carry the rest to the write.
	t.Run("read segments", func(t *testing.T) {
		th, addrs := allocWorld(t,
			htm.Config{ReadCapacityLines: 6, WriteCapacityLines: 1}, tm.RetryPolicy{InitialPrefixLength: 4})
		requireZeroAllocs(t, th, func(tx tm.Tx) error {
			var sum uint64
			for _, a := range addrs {
				sum += tx.Load(a)
			}
			tx.Store(addrs[0], sum)
			return nil
		})
		if s := th.Stats(); s.SegmentCommits != 2*s.Commits || s.SoftwareReads != 0 {
			t.Fatalf("%d segments committed and %d software reads over %d transactions, want two a transaction and none",
				s.SegmentCommits, s.SoftwareReads, s.Commits)
		}
	})
}

// TestZeroAllocReadOnly covers the read-only hint path (no writer commit
// work at all).
func TestZeroAllocReadOnly(t *testing.T) {
	th, addrs := allocWorld(t, htm.Config{}, tm.RetryPolicy{})
	fn := func(tx tm.Tx) error {
		_ = tx.Load(addrs[0])
		_ = tx.Load(addrs[1])
		return nil
	}
	for i := 0; i < 16; i++ {
		if err := th.RunReadOnly(fn); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := th.RunReadOnly(fn); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("read-only transaction allocates: %v allocs/run, want 0", avg)
	}
}

// BenchmarkTxnFastPath: one HTM fast-path read-modify-write commit per
// iteration, the transaction TestZeroAllocFastPath holds to 0 allocs.
func BenchmarkTxnFastPath(b *testing.B) {
	th, addrs := allocWorld(b, htm.Config{}, tm.RetryPolicy{})
	fn := fastPathFn(addrs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := th.Run(fn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTxnMixedSlowPath: one capacity-bound mixed slow-path commit
// (prefix + software reads + postfix publish) per iteration, the
// transaction TestZeroAllocMixedSlowPath holds to 0 allocs.
func BenchmarkTxnMixedSlowPath(b *testing.B) {
	th, addrs := allocWorld(b,
		htm.Config{ReadCapacityLines: 2, WriteCapacityLines: 1},
		tm.RetryPolicy{})
	fn := slowPathFn(addrs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := th.Run(fn); err != nil {
			b.Fatal(err)
		}
	}
}

// auditWorld builds the world of BenchmarkTxnAuditOverCapacity and
// TestAuditOverCapacitySoftReads: one thread over a 10 000-node red-black
// tree on a 256/64-line device. It returns the thread and one audit step,
// the transaction the benchmark's tm-capacity-mix workload spends its time
// in: a Range over 600 keys (~1 250 loads, over the read capacity) that
// Puts what it summed into one of four summary keys, so it dies in hardware
// and commits on the mixed slow path. The 16 warm-up audits it runs first
// let the prefix budget settle and create the summaries.
func auditWorld(tb testing.TB) (tm.Thread, func()) {
	tb.Helper()
	const keyRange, span, summaries = 20000, 600, 4
	m := mem.New(1 << 20)
	dev := htm.NewDevice(m, htm.Config{ReadCapacityLines: 256, WriteCapacityLines: 64})
	dev.SetActiveThreads(1)
	th := core.New(m, dev, tm.RetryPolicy{}).NewThread()
	tb.Cleanup(func() { th.Close() })
	var tree rbtree.Tree
	run := func(fn func(tm.Tx) error) {
		if err := th.Run(fn); err != nil {
			tb.Fatal(err)
		}
	}
	run(func(tx tm.Tx) error { tree = rbtree.New(tx); return nil })
	// Every other key, inserted in a scattered order (a full-period walk of
	// the even keys) so neighbouring keys do not share cache lines.
	for i, k := 0, uint64(0); i < keyRange/2; i, k = i+1, (k+7919*2)%keyRange {
		run(func(tx tm.Tx) error { tree.Put(tx, k, k); return nil })
	}
	var lo, sum uint64
	visit := func(_, v uint64) bool { sum += v; return true }
	audit := func(tx tm.Tx) error {
		sum = 0
		tree.Range(tx, lo, lo+span, visit)
		tree.Put(tx, keyRange+lo%summaries, sum)
		return nil
	}
	step := func() {
		run(audit)
		lo = (lo + 7919) % (keyRange - span)
	}
	for i := 0; i < 16; i++ {
		step()
	}
	return th, step
}

// TestAuditOverCapacitySoftReads holds the over-capacity audit to at most
// 64 software reads and 0 allocations a transaction, over 2 000 audits.
// Single-threaded, so the read count is exact: 536.7 before read segments
// chained behind the prefix, 7.5–7.7 with them. A change that sends the
// tail of the audit back to software fails here.
func TestAuditOverCapacitySoftReads(t *testing.T) {
	const audits, maxSoftReads = 2000, 64
	th, step := auditWorld(t)
	var before tm.Stats
	calls := 0
	allocs := testing.AllocsPerRun(audits, func() {
		if calls == 1 { // AllocsPerRun's own warm-up call is not measured
			before = *th.Stats()
		}
		calls++
		step()
	})
	soft := float64(th.Stats().SoftwareReads-before.SoftwareReads) / audits
	if soft > maxSoftReads {
		t.Errorf("%.1f software reads per over-capacity audit, want <= %d", soft, maxSoftReads)
	}
	if allocs != 0 {
		t.Errorf("over-capacity audit allocates: %v allocs/run, want 0", allocs)
	}
}

// BenchmarkTxnAuditOverCapacity: one auditWorld audit per iteration.
// soft-reads/op, prefix-reads/op and segment-reads/op say where its reads
// ran (tm.Stats.SoftwareReads, PrefixReads and SegmentReads): the
// prefix-length adaptation and the read segments exist to move reads out of
// the first. Single-threaded, so all three are exact counts;
// TestAuditOverCapacitySoftReads holds the first to at most 64. 0 allocs/op.
func BenchmarkTxnAuditOverCapacity(b *testing.B) {
	th, step := auditWorld(b)
	before := *th.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	after := th.Stats()
	b.ReportMetric(float64(after.SoftwareReads-before.SoftwareReads)/float64(b.N), "soft-reads/op")
	b.ReportMetric(float64(after.PrefixReads-before.PrefixReads)/float64(b.N), "prefix-reads/op")
	b.ReportMetric(float64(after.SegmentReads-before.SegmentReads)/float64(b.N), "segment-reads/op")
}
