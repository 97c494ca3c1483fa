package serve

import "rhnorec/internal/tm"

// AppendTxnResults exposes the hand-rolled HTTP JSON encoder so the
// equivalence test can pin it against encoding/json.
func AppendTxnResults(buf []byte, res []OpResult) []byte { return appendTxnResults(buf, res) }

// SetTestBatchDelay installs a hook run by every chain after it has taken
// its worker and before it batches, so tests can hold a worker while other
// chains block behind it. Restore the returned previous hook when done.
func SetTestBatchDelay(fn func()) (prev func()) { return setHook(&testBatchDelay, fn) }

// SetTestDurableWait installs a hook run by every chain with durable acks
// after it has released its worker and before it waits for the fsync.
// Restore the returned previous hook when done.
func SetTestDurableWait(fn func()) (prev func()) { return setHook(&testDurableWait, fn) }

func setHook(hook *func(), fn func()) (prev func()) {
	prev = *hook
	if fn == nil {
		fn = func() {}
	}
	*hook = fn
	return prev
}

// Waiting reports how many chains are blocked waiting for client's sticky
// worker, so a test can wait for a blocked caller instead of sleeping.
func (s *Server) Waiting(client string) int64 { return s.workerFor(client).waiting.Load() }

// Engine is the retry engine the admission controller reads, nil when the
// backing system has none.
func (s *Server) Engine() *tm.Engine { return s.engine }
