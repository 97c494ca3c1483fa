package htm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rhnorec/internal/mem"
)

// sink keeps measured loads from being optimized away.
var sink uint64

// txnShapes are the transactions the BenchmarkTxn* benchmarks time: each
// builds its world and returns one iteration's step. TestZeroAllocTxnShapes
// holds every one of them to zero allocations a step.
var txnShapes = []struct {
	name  string
	build func(testing.TB) func()
}{
	{"LoadDup", loadDup},
	{"LoadDistinct32", loadDistinct32},
	{"LoadLines8x4", loadLines8x4},
	{"LoadNode", loadNode},
	{"InsertNode", insertNode},
	{"CapacityAbort256", capacityAbort256},
}

func benchShape(b *testing.B, build func(testing.TB) func()) {
	step := build(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func BenchmarkTxnLoadDup(b *testing.B)          { benchShape(b, loadDup) }
func BenchmarkTxnLoadDistinct32(b *testing.B)   { benchShape(b, loadDistinct32) }
func BenchmarkTxnLoadLines8x4(b *testing.B)     { benchShape(b, loadLines8x4) }
func BenchmarkTxnLoadNode(b *testing.B)         { benchShape(b, loadNode) }
func BenchmarkTxnInsertNode(b *testing.B)       { benchShape(b, insertNode) }
func BenchmarkTxnCapacityAbort256(b *testing.B) { benchShape(b, capacityAbort256) }

// loadDup is a long transaction that re-reads a small set of addresses while
// foreign plain stores keep forcing revalidations: the cost must scale with
// the number of *distinct* addresses in the read set, not with the dynamic
// read count. Each step is one 4096-load transaction over 16 distinct words
// with a clock-moving foreign store every 64 loads.
func loadDup(tb testing.TB) func() {
	m := mem.New(1 << 16)
	d := NewDevice(m, Config{})
	d.SetActiveThreads(1)
	tc := m.NewThreadCache()
	var addrs [16]mem.Addr
	for i := range addrs {
		addrs[i] = tc.Alloc(mem.LineWords)
	}
	foreign := tc.Alloc(mem.LineWords)
	tx := d.NewTxn()
	return func() {
		tx.Begin()
		for j := 0; j < 4096; j++ {
			if j%64 == 63 {
				m.StorePlain(foreign, uint64(j))
			}
			_ = tx.Load(addrs[j%len(addrs)])
		}
		tx.Commit()
	}
}

// loadDistinct32 is the shape of a tree lookup: one read-only transaction
// over 32 distinct words on 32 lines, spread over 32 of the 64 stripes, no
// duplicates and nothing moving — so every load is a first read of an
// unseen stripe, the case the read index and the ticket gate exist for.
// Past the 16 words the old inline arrays held, this used to be a
// map-backed transaction.
func loadDistinct32(tb testing.TB) func() {
	m := mem.New(1 << 16)
	d := NewDevice(m, Config{})
	d.SetActiveThreads(1)
	tc := m.NewThreadCache()
	var addrs [32]mem.Addr
	for i := range addrs {
		addrs[i] = tc.Alloc(mem.LineWords)
	}
	return readOnly(d.NewTxn(), addrs[:])
}

// loadLines8x4 is the shape of a tree traversal that reads several fields
// of every node it visits: one read-only transaction over 32 distinct words
// on 8 lines, four words a line (a node's key, value and child pointers),
// nothing moving. Only every fourth load opens a line; the other three find
// theirs in the log and take the bitmap branch, the case a word-keyed log
// paid a full insert for.
func loadLines8x4(tb testing.TB) func() {
	m := mem.New(1 << 16)
	d := NewDevice(m, Config{})
	d.SetActiveThreads(1)
	tc := m.NewThreadCache()
	var addrs [32]mem.Addr
	for i := 0; i < len(addrs); i += 4 {
		node := tc.Alloc(mem.LineWords)
		for w := 0; w < 4; w++ {
			addrs[i+w] = node + mem.Addr(w)
		}
	}
	return readOnly(d.NewTxn(), addrs[:])
}

// readOnly returns a step that loads addrs in one read-only transaction.
func readOnly(tx *Txn, addrs []mem.Addr) func() {
	return func() {
		tx.Begin()
		for _, a := range addrs {
			sink += tx.Load(a)
		}
		tx.Commit()
	}
}

// loadNode is the shape of an RBTree Get: one read-only transaction down 14
// nodes, reading each node's key (word 0) and then its left or right child
// pointer (word 2 or 3), nothing moving. The nodes are 6-word blocks from
// the allocator, packed back to back with no line alignment as rbtree's
// are, and the walk takes every fifth one: no two visited nodes share a
// line, and their offsets in a line cycle through 0, 6, 4 and 2, so the
// child shares its key's line in three nodes of four.
func loadNode(tb testing.TB) func() {
	const nodeWords = 6 // rbtree's node size
	m := mem.New(1 << 16)
	d := NewDevice(m, Config{})
	d.SetActiveThreads(1)
	tc := m.NewThreadCache()
	var carved [5 * 14]mem.Addr
	for i := range carved {
		carved[i] = tc.Alloc(nodeWords)
	}
	var nodes [14]mem.Addr
	for i := range nodes {
		nodes[i] = carved[5*i]
	}
	tx := d.NewTxn()
	return func() {
		tx.Begin()
		for j, n := range nodes {
			sink += tx.Load(n)                     // the key
			sink += tx.Load(n + 2 + mem.Addr(j&1)) // the left or right child
		}
		tx.Commit()
	}
}

// insertNode is the shape of an RBTree Put that links in a new node, the
// writer path: 37 loads and 7 stores, as rbtree's ledger reads 37.5 loads
// and 6.7 stores a put. It descends 11 of loadNode's packed 6-word nodes
// (key, then child: 22 loads), fills four words of a fresh node and links
// it into the leaf, then walks back up five nodes reading colour, parent
// and child (15 loads after the first store, one of them a read of its own
// write), recolours the leaf and rewrites the new node's colour. The
// stores land on the fresh node's and the leaf's lines.
func insertNode(tb testing.TB) func() {
	const nodeWords = 6 // rbtree's node size: key, value, left, right, parent, colour
	m := mem.New(1 << 16)
	d := NewDevice(m, Config{})
	d.SetActiveThreads(1)
	tc := m.NewThreadCache()
	var carved [5 * 11]mem.Addr
	for i := range carved {
		carved[i] = tc.Alloc(nodeWords)
	}
	var nodes [11]mem.Addr
	for i := range nodes {
		nodes[i] = carved[5*i]
	}
	fresh := tc.Alloc(nodeWords)
	leaf := nodes[len(nodes)-1]
	tx := d.NewTxn()
	return func() {
		tx.Begin()
		for j, n := range nodes {
			sink += tx.Load(n)                     // the key
			sink += tx.Load(n + 2 + mem.Addr(j&1)) // the left or right child
		}
		tx.Store(fresh, sink)           // key
		tx.Store(fresh+1, sink)         // value
		tx.Store(fresh+4, uint64(leaf)) // parent
		tx.Store(fresh+5, 1)            // red
		tx.Store(leaf+2, uint64(fresh)) // the leaf's left child
		for j := len(nodes) - 1; j >= len(nodes)-5; j-- {
			n := nodes[j]
			sink += tx.Load(n + 5) // colour
			sink += tx.Load(n + 4) // parent
			sink += tx.Load(n + 2) // left child
		}
		tx.Store(leaf+5, 0)  // recolour the leaf black
		tx.Store(fresh+5, 0) // the rewrite: the new node ends black
		tx.Commit()
	}
}

// capacityAbort256 is the doomed hardware attempt of an over-capacity
// transaction (tm-capacity-mix's audits): 257 distinct lines against a
// 256-line read budget, aborting on the last load and unwinding through
// Attempt. The log it grows is the largest a 256-line device can hold, so
// this is also the reset cost the next small transaction inherits.
func capacityAbort256(tb testing.TB) func() {
	m := mem.New(1 << 16)
	d := NewDevice(m, Config{ReadCapacityLines: 256})
	d.SetActiveThreads(1)
	tc := m.NewThreadCache()
	var addrs [257]mem.Addr
	for i := range addrs {
		addrs[i] = tc.Alloc(mem.LineWords)
	}
	tx := d.NewTxn()
	body := func() {
		for _, a := range addrs {
			sink += tx.Load(a)
		}
	}
	return func() {
		if ab := tx.Attempt(body); ab == nil || ab.Code != Capacity {
			tb.Fatalf("want a capacity abort, got %v", ab)
		}
	}
}

// BenchmarkReadOnlyCommit measures read-only fast-path commits from 8
// simulated hardware threads at once while a plain writer publishes to an
// unrelated line — the paper's read-dominated scenario. Each transaction
// re-reads a 4-word hot set 16 times (a traversal revisiting its upper
// levels). Real RTM commits a read-only transaction without touching
// anything shared; the simulated commit must not serialize these
// transactions on the memory's stripes.
func BenchmarkReadOnlyCommit(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	m := mem.New(1 << 16)
	d := NewDevice(m, Config{})
	d.SetActiveThreads(8)
	tc := m.NewThreadCache()
	var addrs [4]mem.Addr
	for i := range addrs {
		addrs[i] = tc.Alloc(mem.LineWords)
	}
	foreign := tc.Alloc(mem.LineWords)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); !stop.Load(); i++ {
			m.StorePlain(foreign, i)
			runtime.Gosched()
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tx := d.NewTxn()
		for pb.Next() {
			tx.Begin()
			for rep := 0; rep < 16; rep++ {
				for _, a := range addrs {
					_ = tx.Load(a)
				}
			}
			tx.Commit()
		}
	})
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
}

// BenchmarkCommitWriteback measures a writer transaction's commit: 16
// buffered stores on distinct lines published per commit. This is the path
// that must publish the write buffer without an intermediate copy.
func BenchmarkCommitWriteback(b *testing.B) {
	m := mem.New(1 << 16)
	d := NewDevice(m, Config{})
	d.SetActiveThreads(1)
	tc := m.NewThreadCache()
	var addrs [16]mem.Addr
	for i := range addrs {
		addrs[i] = tc.Alloc(mem.LineWords)
	}
	tx := d.NewTxn()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Begin()
		for j, a := range addrs {
			tx.Store(a, uint64(i+j))
		}
		tx.Commit()
	}
}
