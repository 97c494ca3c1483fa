package tm

import "rhnorec/internal/mem"

// This file is the one value read log: NOrec's read set, beside the one
// write log. A protocol whose only metadata is a global clock (LSB the lock
// bit, writer commits advance it by 2) and which logs what it read can
// answer a moved clock without restarting: wait for the clock to be even,
// re-read every logged word, and if all still hold their logged values the
// snapshot extends to the new clock. The lazy NOrec drivers read through it
// and keep only their lock brackets; the skeleton (run.go) resets it before
// each software try.

// ReadLog is one software attempt's value read set over one clock word.
// The zero value is an unused log whose Reset is free; drivers that read
// through it install one per thread with NewReadLog.
type ReadLog struct {
	m     *mem.Memory
	clock mem.Addr
	// entries holds one (address, value returned) pair per Load, oldest
	// first; its storage is grown once and recycled.
	entries []mem.WriteEntry
}

// NewReadLog returns a thread's read log over the protocol's clock word.
func NewReadLog(m *mem.Memory, clock mem.Addr) ReadLog {
	return ReadLog{m: m, clock: clock}
}

// Load reads a for an attempt whose snapshot is the even clock value *txv
// and logs what it returns. While the clock is not *txv the snapshot is
// revalidated and extended (Validate) and a read again, so the value
// returned is consistent with every earlier Load at the *txv it leaves.
func (l *ReadLog) Load(a mem.Addr, txv *uint64) uint64 {
	val := l.m.LoadPlain(a)
	for l.m.LoadPlain(l.clock) != *txv {
		*txv = l.Validate()
		val = l.m.LoadPlain(a)
	}
	l.entries = append(l.entries, mem.WriteEntry{Addr: a, Value: val})
	return val
}

// Validate returns an even clock value at which every logged word still
// holds its logged value, waiting out a writer that holds the lock bit; it
// Restarts the transaction if one does not. A lazy commit point calls it
// when its CAS on the clock fails.
func (l *ReadLog) Validate() uint64 {
	for {
		time := awaitEven(l.m, l.clock)
		for _, r := range l.entries {
			if l.m.LoadPlain(r.Addr) != r.Value {
				Restart()
			}
		}
		if l.m.LoadPlain(l.clock) == time {
			return time
		}
	}
}

// Reset empties the log for the next attempt.
func (l *ReadLog) Reset() { l.entries = l.entries[:0] }
