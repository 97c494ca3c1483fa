// Package serial implements the degenerate baseline TM: a single global
// mutex serializes every transaction. It trivially provides opacity,
// serializability and privatization, scales not at all, and doubles as the
// correctness oracle for differential tests of the real algorithms.
package serial

import (
	"sync"

	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// System is a global-lock TM over one shared memory.
type System struct {
	m   *mem.Memory
	rec *tm.Reclaimer
	mu  sync.Mutex
}

// New creates a serial TM over m.
func New(m *mem.Memory) *System {
	return &System{m: m, rec: tm.NewReclaimer()}
}

// Name implements tm.System.
func (s *System) Name() string { return "serial" }

// Memory implements tm.System.
func (s *System) Memory() *mem.Memory { return s.m }

// NewThread implements tm.System.
func (s *System) NewThread() tm.Thread {
	t := &thread{sys: s, base: tm.NewThreadBase(s.m, s.rec)}
	t.base.Bind(t, nil)
	return t
}

type thread struct {
	sys  *System
	base tm.ThreadBase
	undo []mem.WriteEntry
}

// txView adapts the thread to tm.Tx while the lock is held.
type txView struct{ t *thread }

func (v txView) Load(a mem.Addr) uint64 { return v.t.base.M.LoadPlain(a) }

func (v txView) Store(a mem.Addr, val uint64) {
	if v.t.base.ReadOnly {
		panic(tm.ErrStoreInReadOnly)
	}
	v.t.undo = append(v.t.undo, mem.WriteEntry{Addr: a, Value: v.t.base.M.LoadPlain(a)})
	v.t.base.M.StorePlain(a, val)
}

func (v txView) Alloc(n int) mem.Addr { return v.t.base.TxAlloc(n) }

func (v txView) Free(a mem.Addr, n int) { v.t.base.TxFree(a, n) }

func (t *thread) Run(fn func(tm.Tx) error) error         { return t.base.Run(fn, false) }
func (t *thread) RunReadOnly(fn func(tm.Tx) error) error { return t.base.Run(fn, true) }

// BeginSlow takes the global lock on the Run's first try; the whole Run
// executes under it.
func (t *thread) BeginSlow(try int) (tm.Tx, bool) {
	if try == 1 {
		t.sys.mu.Lock()
	}
	t.undo = t.undo[:0]
	return txView{t}, true
}

// CommitSlow has nothing to publish: the writes went to memory in place.
func (t *thread) CommitSlow() {}

// AbortSlow undoes eager writes in reverse order.
func (t *thread) AbortSlow() {
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.base.M.StorePlain(t.undo[i].Addr, t.undo[i].Value)
	}
	t.undo = t.undo[:0]
}

// EndSlow releases the global lock.
func (t *thread) EndSlow() { t.sys.mu.Unlock() }

func (t *thread) Stats() *tm.Stats { return &t.base.St }

func (t *thread) Close() { t.base.CloseBase() }
