package htm_test

import (
	"testing"

	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/tmtest"
)

// TestLoneTxnDoesNotPace pins the pacing rule: a yield point gives up the
// processor only while its device has another live hardware context. 70
// loads pass 10 yield points; they let a bystander goroutine in only while
// a second Txn is open, and again once a fresh one opens after the second
// Txn's Close ran twice (a Close that is not idempotent leaves the count one
// short and this last step reads 0).
func TestLoneTxnDoesNotPace(t *testing.T) {
	m := mem.New(1 << 16)
	d := htm.NewDevice(m, htm.Config{})
	base := m.NewThreadCache().Alloc(16 * mem.LineWords)
	tx := d.NewTxn()
	loads := func() {
		tx.Begin()
		for i := 0; i < 70; i++ {
			tx.Load(base + mem.Addr(i%16*mem.LineWords+i%3))
		}
		tx.Commit()
	}
	if n := tmtest.BystanderRuns(loads); n != 0 {
		t.Fatalf("lone Txn let the bystander run %d times, want 0", n)
	}
	peer := d.NewTxn()
	if n := tmtest.BystanderRuns(loads); n < 1 {
		t.Fatalf("with a live peer the bystander ran %d times, want >= 1", n)
	}
	peer.Close()
	peer.Close()
	if n := tmtest.BystanderRuns(loads); n != 0 {
		t.Fatalf("after the peer's Close the bystander ran %d times, want 0", n)
	}
	d.NewTxn()
	if n := tmtest.BystanderRuns(loads); n < 1 {
		t.Fatalf("with a fresh peer the bystander ran %d times, want >= 1", n)
	}
}
