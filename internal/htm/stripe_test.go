package htm

import (
	"testing"

	"rhnorec/internal/mem"
)

// TestOpacityReaderSpansTwoStripes is the striping opacity regression: a
// reader whose footprint spans two stripes must never observe half of a
// commit that mutated both. The reader logs a from stripe A; one commit
// then atomically rewrites a (stripe A) and b (stripe B); the subsequent
// read of b has to abort rather than pair the stale a with the fresh b —
// the cross-stripe sweep must catch stripe A's motion even though b's own
// stripe looks pristine.
func TestOpacityReaderSpansTwoStripes(t *testing.T) {
	m, d, c := newTestDevice(Config{})
	a := c.Alloc(2 * mem.LineWords)
	b := a + mem.LineWords
	if m.StripeOf(a) == m.StripeOf(b) {
		t.Fatalf("a and b share stripe %d; the regression needs two stripes", m.StripeOf(a))
	}
	m.StorePlain(a, 10)
	m.StorePlain(b, 20)
	tx := d.NewTxn()
	ab := attempt(tx, func() {
		if got := tx.Load(a); got != 10 {
			t.Fatalf("Load(a) = %d, want 10", got)
		}
		if !m.CommitWrites([]mem.WriteEntry{{Addr: a, Value: 11}, {Addr: b, Value: 21}}, nil) {
			t.Fatal("foreign commit failed")
		}
		if got := tx.Load(b); true {
			t.Fatalf("Load(b) returned %d; the transaction observed {a:10, b:%d}, which no memory state ever held", got, got)
		}
	})
	if ab == nil || ab.Code != Conflict {
		t.Fatalf("abort = %v, want conflict", ab)
	}
}

// TestReaderSurvivesDisjointStripeCommit is the payoff side of striping: a
// commit whose write set never intersects the reader's footprint stripes
// must not disturb the reader at all — no revalidation, no abort, and the
// commit goes through while the reader is mid-flight.
func TestReaderSurvivesDisjointStripeCommit(t *testing.T) {
	m, d, c := newTestDevice(Config{})
	a := c.Alloc(4 * mem.LineWords)
	foreign1 := a + 2*mem.LineWords
	foreign2 := a + 3*mem.LineWords
	m.StorePlain(a, 10)
	tx := d.NewTxn()
	ab := attempt(tx, func() {
		if got := tx.Load(a); got != 10 {
			t.Fatalf("Load(a) = %d, want 10", got)
		}
		if !m.CommitWrites([]mem.WriteEntry{{Addr: foreign1, Value: 1}, {Addr: foreign2, Value: 2}}, nil) {
			t.Fatal("disjoint foreign commit failed")
		}
		if got := tx.Load(a + 1); got != 0 {
			t.Fatalf("Load(a+1) = %d, want 0", got)
		}
	})
	if ab != nil {
		t.Fatalf("reader aborted on a disjoint-stripe commit: %v", ab)
	}
}

// TestCommitValidatesOwnWriteStripeReads covers the read∩write stripe case
// at commit: the transaction reads a word, another thread's store then
// changes it, and the transaction tries to commit a write to a *different*
// word of the same stripe. The commit holds that stripe's lock with the
// window open, so the validation must check the read by value under its
// own lock — and abort.
func TestCommitValidatesOwnWriteStripeReads(t *testing.T) {
	m, d, c := newTestDevice(Config{})
	a := c.Alloc(mem.LineWords)
	tx := d.NewTxn()
	ab := attempt(tx, func() {
		if got := tx.Load(a); got != 0 {
			t.Fatalf("Load(a) = %d, want 0", got)
		}
		m.StorePlain(a, 99) // foreign store to the read word
		tx.Store(a+1, 7)    // write lands in the same stripe
	})
	if ab == nil || ab.Code != Conflict {
		t.Fatalf("abort = %v, want conflict from the owned-stripe value check", ab)
	}
	if got := m.LoadPlain(a + 1); got != 0 {
		t.Errorf("aborted commit leaked its write: a+1 = %d", got)
	}
}

// gateFixture is a reader and a writer transaction over four words on four
// distinct stripes, for the ticket-gate tests below.
func gateFixture(t *testing.T) (m *mem.Memory, reader, writer *Txn, r, s, s2, u mem.Addr) {
	t.Helper()
	m, d, c := newTestDevice(Config{})
	r = c.Alloc(4 * mem.LineWords)
	s, s2, u = r+mem.LineWords, r+2*mem.LineWords, r+3*mem.LineWords
	seen := map[int]bool{}
	for _, a := range []mem.Addr{r, s, s2, u} {
		seen[m.StripeOf(a)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("the four words cover %d stripes; the gate tests need four", len(seen))
	}
	m.StorePlain(r, 10)
	m.StorePlain(s, 20)
	return m, d.NewTxn(), d.NewTxn(), r, s, s2, u
}

// TestGateClosedByIntersectingCommit: the ticket gate must not let a
// snapshot extension past a commit that rewrote the log. The reader logs r;
// a writer transaction then commits {r, s}; the reader's first load of s —
// an unseen stripe whose own clock looks pristine to it — has to sweep, find
// r moved, and abort, rather than pair the old r with the new s.
func TestGateClosedByIntersectingCommit(t *testing.T) {
	m, reader, writer, r, s, _, _ := gateFixture(t)
	ab := attempt(reader, func() {
		if got := reader.Load(r); got != 10 {
			t.Fatalf("Load(r) = %d, want 10", got)
		}
		if reader.gate != m.Ticket() {
			t.Fatalf("gate %d not armed at ticket %d after a quiet first load", reader.gate, m.Ticket())
		}
		if wab := attempt(writer, func() {
			writer.Store(r, writer.Load(r)+1)
			writer.Store(s, writer.Load(s)+1)
		}); wab != nil {
			t.Fatalf("writer aborted: %v", wab)
		}
		got := reader.Load(s)
		t.Fatalf("Load(s) returned %d next to r = 10; memory held {10, 20} and {11, 21} only", got)
	})
	if ab == nil || ab.Code != Conflict {
		t.Fatalf("abort = %v, want conflict", ab)
	}
}

// TestGateReopensAfterDisjointCommit is the control: a commit to a stripe
// outside the footprint moves the ticket, so the reader's next first load
// of an unseen stripe cannot take the gate — it sweeps, finds its log
// intact, survives, and re-arms the gate at the new ticket, so the load
// after that one extends for free again.
func TestGateReopensAfterDisjointCommit(t *testing.T) {
	m, reader, writer, r, s, s2, u := gateFixture(t)
	ab := attempt(reader, func() {
		if got := reader.Load(r); got != 10 {
			t.Fatalf("Load(r) = %d, want 10", got)
		}
		if wab := attempt(writer, func() { writer.Store(u, 99) }); wab != nil {
			t.Fatalf("writer aborted: %v", wab)
		}
		if reader.gate == m.Ticket() {
			t.Fatal("the disjoint commit did not move the ticket off the gate")
		}
		if got := reader.Load(s); got != 20 {
			t.Fatalf("Load(s) = %d, want 20", got)
		}
		if reader.gate != m.Ticket() {
			t.Fatalf("gate %d not re-armed at ticket %d by the surviving sweep", reader.gate, m.Ticket())
		}
		if got := reader.Load(s2); got != 0 {
			t.Fatalf("Load(s2) = %d, want 0", got)
		}
	})
	if ab != nil {
		t.Fatalf("reader aborted on a disjoint-stripe commit: %v", ab)
	}
	if got := reader.marks.n; got != 3 {
		t.Fatalf("footprint holds %d stripes, want 3 (r, s, s2)", got)
	}
}

// TestGateNeverAppliesToWriterCommit: a writer's commit-time validation
// sweeps whatever the ticket says. The transaction reads r and buffers a
// store elsewhere; r is then rewritten behind the ticket's back — the word
// changes and its stripe clock moves, but the ticket is wound back to the
// gate — so a gated commit sweep would publish against the stale read.
func TestGateNeverAppliesToWriterCommit(t *testing.T) {
	m, tx, _, r, s, _, _ := gateFixture(t)
	ab := attempt(tx, func() {
		tx.Store(s, tx.Load(r)+1)
		gate := tx.gate
		m.StorePlain(r, 11)
		tx.gate = m.Ticket() // as if the ticket had not moved
		if tx.gate == gate {
			t.Fatal("the store did not move the ticket")
		}
	})
	if ab == nil || ab.Code != Conflict {
		t.Fatalf("abort = %v, want conflict: the writer commit must not consult the gate", ab)
	}
	if got := m.LoadPlain(s); got != 20 {
		t.Errorf("aborted commit leaked its write: s = %d", got)
	}
}
