package tm

import "rhnorec/internal/mem"

// This file is the one software write log. Every driver's software path
// publishes the same way — plain stores into memory while a lock of the
// protocol's own (the clock's lock bit, a stripe lock, a global lock) hides
// them from every transaction that could certify a read of them — and needs
// the same three things around those stores: the old values back if the
// attempt dies, a private buffer when the stores must wait for the commit
// point, and one redo record for the durability plane when they become
// visible. The skeleton (run.go) resets the log before each software try and
// rolls it back before the driver's AbortSlow; the driver stores through it
// and calls Seal at its commit point.

// writeSetScan is the size up to which a writeSet finds an address by
// scanning. Most write sets are a handful of words, where a scan beats a
// hash and allocates nothing; the index past it keeps a thousand-word
// transaction linear.
const writeSetScan = 8

// writeSet is an insertion-ordered set of word writes in which the last
// value put to an address wins. The zero value is empty and ready; its
// storage is grown once and recycled.
type writeSet struct {
	entries []mem.WriteEntry
	// index maps address to position in entries; maintained only while the
	// set is larger than writeSetScan.
	index map[mem.Addr]int
}

func (s *writeSet) find(a mem.Addr) int {
	if len(s.entries) > writeSetScan {
		if i, ok := s.index[a]; ok {
			return i
		}
		return -1
	}
	for i := range s.entries {
		if s.entries[i].Addr == a {
			return i
		}
	}
	return -1
}

// Put records v as the value of a.
func (s *writeSet) Put(a mem.Addr, v uint64) {
	if i := s.find(a); i >= 0 {
		s.entries[i].Value = v
		return
	}
	s.push(a, v)
}

// push appends a write to an address the set does not hold yet.
func (s *writeSet) push(a mem.Addr, v uint64) {
	s.entries = append(s.entries, mem.WriteEntry{Addr: a, Value: v})
	n := len(s.entries)
	if n <= writeSetScan {
		return
	}
	if n > writeSetScan+1 {
		s.index[a] = n - 1
		return
	}
	// The set just outgrew the scan: index everything it holds.
	if s.index == nil {
		s.index = make(map[mem.Addr]int, 4*writeSetScan)
	}
	for i := range s.entries {
		s.index[s.entries[i].Addr] = i
	}
}

// Get returns the value last put to a.
func (s *writeSet) Get(a mem.Addr) (uint64, bool) {
	if i := s.find(a); i >= 0 {
		return s.entries[i].Value, true
	}
	return 0, false
}

// Entries returns the writes in first-put order. The slice aliases the
// set's storage: it is valid until the next Put or Reset.
func (s *writeSet) Entries() []mem.WriteEntry { return s.entries }

// Reset empties the set.
func (s *writeSet) Reset() {
	if len(s.entries) > writeSetScan {
		clear(s.index)
	}
	s.entries = s.entries[:0]
}

// WriteLog is one software attempt's write set: the in-place stores it can
// still take back, the stores it is holding for its commit point, and what
// the durability plane is owed for the ones it has published.
//
// Ordering rule (mem.Persister): Seal must run after the attempt's last
// store and immediately before the store that releases the lock hiding
// those stores — the clock, the stripes, the global lock. A transaction
// that reads one of the values can then commit only after the record is in
// the log, so the log's order extends every reads-from edge and a replayed
// prefix is a consistent cut.
type WriteLog struct {
	m *mem.Memory
	// undo holds one entry per eager store, oldest first: the address and
	// the value the store replaced.
	undo []mem.WriteEntry
	buf  writeSet
	// pub holds what Publish stored since the last Seal. Only kept while a
	// persister is attached; nothing else needs it.
	pub  []mem.WriteEntry
	redo writeSet // Seal's record under assembly
}

// StoreEager writes v to a in place, remembering the value it replaces.
// The caller holds the lock that hides a from other transactions.
func (l *WriteLog) StoreEager(a mem.Addr, v uint64) {
	l.undo = append(l.undo, mem.WriteEntry{Addr: a, Value: l.m.LoadPlain(a)})
	l.m.StorePlain(a, v)
}

// Buffer holds a store of v to a for the commit point.
func (l *WriteLog) Buffer(a mem.Addr, v uint64) { l.buf.Put(a, v) }

// Lookup answers a read of a from the buffered stores.
func (l *WriteLog) Lookup(a mem.Addr) (uint64, bool) { return l.buf.Get(a) }

// Buffered returns the buffered stores, first-stored first, each address
// once with its last value (valid until the next Buffer or Reset). It is
// what a lazy driver publishes at its commit point.
func (l *WriteLog) Buffered() []mem.WriteEntry { return l.buf.Entries() }

// Publish stores ws in place, in order — the attempt's own Buffered set at
// a lazy commit point. There is no way back from it: the caller has
// validated and holds its lock.
func (l *WriteLog) Publish(ws []mem.WriteEntry) {
	for _, w := range ws {
		l.m.StorePlain(w.Addr, w.Value)
	}
	if l.m.Persisting() {
		l.pub = append(l.pub, ws...)
	}
}

// Seal is the commit point's hand-off to the durability plane: one redo
// record holding the final value of every word stored in place since the
// last Seal (StoreEager and Publish alike), read back from memory under the
// caller's lock. It is the only caller of mem.AppendRedo. With no persister
// attached it does nothing but forget; a second Seal finds nothing to log.
func (l *WriteLog) Seal() {
	if l.m.Persisting() {
		l.redo.Reset()
		for i := range l.undo {
			l.sealWord(l.undo[i].Addr)
		}
		for i := range l.pub {
			l.sealWord(l.pub[i].Addr)
		}
		if ws := l.redo.Entries(); len(ws) > 0 {
			l.m.AppendRedo(ws)
		}
	}
	l.undo, l.pub = l.undo[:0], l.pub[:0]
}

func (l *WriteLog) sealWord(a mem.Addr) {
	if l.redo.find(a) < 0 {
		l.redo.push(a, l.m.LoadPlain(a))
	}
}

// Rollback takes back the eager stores, newest first. Buffered stores were
// never visible and are dropped by the next Reset.
func (l *WriteLog) Rollback() {
	for i := len(l.undo) - 1; i >= 0; i-- {
		l.m.StorePlain(l.undo[i].Addr, l.undo[i].Value)
	}
	l.undo = l.undo[:0]
}

// Reset empties the log for the next attempt.
func (l *WriteLog) Reset() {
	l.undo, l.pub = l.undo[:0], l.pub[:0]
	l.buf.Reset()
}
