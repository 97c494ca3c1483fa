// Package tm defines the common transactional-memory runtime every
// algorithm in this repository plugs into: the application-facing Tx
// interface, per-thread contexts, the restart protocol, transactional
// allocation with epoch-based reclamation, retry policies (paper §3.3), and
// the statistics counters behind the analysis rows of the paper's Figures
// 4–6.
//
// The package plays the role GCC's libitm plays in the paper: one
// application code path, several interchangeable TM back ends. The paper's
// compiler hint for statically read-only transactions maps to the explicit
// RunReadOnly entry point.
package tm

import (
	"rhnorec/internal/mem"
)

// Tx is the transactional view application code runs against. All shared
// state lives in a mem.Memory and is accessed by address; Load and Store are
// instrumented (or not — on hardware fast paths they go straight to the
// speculation buffer) by the executing TM.
//
// Transactions restart by panicking internally; application callbacks must
// not recover panics they did not raise, and must be safe to re-execute from
// the top (no external side effects before commit).
type Tx interface {
	// Load reads one word of transactional memory.
	Load(a mem.Addr) uint64
	// Store writes one word of transactional memory.
	Store(a mem.Addr, v uint64)
	// Alloc returns a fresh zeroed block of transactional memory. If the
	// transaction ultimately aborts, the block is reclaimed automatically.
	Alloc(nWords int) mem.Addr
	// Free releases a block when the transaction commits. Reclamation is
	// deferred past a grace period so that doomed transactions still
	// running on stale snapshots never observe recycled memory.
	Free(a mem.Addr, nWords int)
}

// Thread is one worker's handle onto a TM system. Threads are not safe for
// concurrent use; create one per goroutine via System.NewThread.
type Thread interface {
	// Run executes fn as an atomic transaction, retrying per the system's
	// policy until it commits. If fn returns a non-nil error the
	// transaction aborts cleanly (no writes become visible) and Run
	// returns that error without retrying.
	Run(fn func(Tx) error) error
	// RunReadOnly is Run with a static read-only hint, standing in for the
	// GCC compiler analysis the paper uses: the TM may skip writer-side
	// commit work (e.g. the fast path omits the clock bump of Algorithm 1
	// line 33). Calling Store inside fn is a programming error and panics.
	RunReadOnly(fn func(Tx) error) error
	// Stats exposes this thread's counters. The caller may read them
	// between transactions; systems never reset them.
	Stats() *Stats
	// Close releases the thread's reclamation slot and, for a hybrid, its
	// hardware context, so the threads left pace only against each other
	// (a lone one not at all). Close is idempotent; the thread must not be
	// used afterwards.
	Close()
}

// System is a transactional-memory algorithm instance over one shared
// memory.
type System interface {
	// Name identifies the algorithm (e.g. "rh-norec").
	Name() string
	// Memory returns the shared memory the system synchronizes.
	Memory() *mem.Memory
	// NewThread creates a per-goroutine execution context.
	NewThread() Thread
}

// ErrStoreInReadOnly is the panic message used when a transaction declared
// read-only executes a Store.
const ErrStoreInReadOnly = "tm: Store inside a read-only transaction"

// restartSignal is the panic payload of a software-transaction restart.
type restartSignal struct{}

// Restart aborts the current software transaction attempt and transfers
// control to the owning Run loop, which will retry. It never returns.
func Restart() {
	panic(restartSignal{})
}

// IsRestart reports whether a recovered panic value is a transaction
// restart.
func IsRestart(r any) bool {
	_, ok := r.(restartSignal)
	return ok
}
