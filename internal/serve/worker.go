package serve

import (
	"sync"
	"sync/atomic"

	"rhnorec/internal/obs"
	"rhnorec/internal/tm"
)

// admissionCounters ledgers the three shed causes (rhserve.v1 "admission").
type admissionCounters struct {
	queueShed      atomic.Uint64 // QueueDepth chains already blocked on the sticky worker
	saturationShed atomic.Uint64 // slow path saturated + backlog
	deadlineShed   atomic.Uint64 // deadline expired before the worker was taken
}

// endpointCounters is one worker's per-endpoint request ledger. Guarded by
// the worker's mutex; published only inside workerSnap copies.
type endpointCounters struct {
	requests uint64
	errors   uint64
	shed     uint64 // deadline sheds (admission sheds never reach a worker)
	fused    uint64 // requests that shared a fused transaction with others
}

// workerSnap is one worker's state copied out under its mutex (or stored by
// Close): a value copy of the tm counters, clones of the observability
// state, and the endpoint ledger. Everything in it is owned by the receiver.
type workerSnap struct {
	stats tm.Stats
	rec   *obs.Recorder
	lat   *obs.LabeledHist
	eps   [numEndpoints]endpointCounters
	ring  []obs.Event // drained only in the final (Close-time) snapshot
}

// worker is one sticky TM thread and its thread-owned metrics. It runs no
// goroutine of its own: a binary session or a Do caller executes its chain
// on its own goroutine while holding mu (exec). mu guards every field below
// it, which is how a tm.Thread — not safe for concurrent use — is used by
// many goroutines, one at a time.
type worker struct {
	s *Server
	// waiting counts the chains blocked on mu, the admission backlog. The
	// chain holding mu is not counted.
	waiting atomic.Int64

	mu sync.Mutex
	th tm.Thread
	// run/runRO are th.Run and th.RunReadOnly bound once: a method value is
	// a fresh closure per evaluation, so binding per batch would
	// heap-allocate on the hot path. body is the batch-executing closure,
	// likewise created once (it reads batch at call time).
	run   func(func(tm.Tx) error) error
	runRO func(func(tm.Tx) error) error
	body  func(tm.Tx) error
	rec   *obs.Recorder
	lat   *obs.LabeledHist
	eps   [numEndpoints]endpointCounters
	batch []*request
	// syncSeq is the redo frontier the running chain's durable acks wait on
	// (0: none); exec waits for it after releasing the worker.
	syncSeq uint64
	// final is the state Close stored; non-nil means th is closed.
	final *workerSnap
}

func newWorker(s *Server) *worker {
	w := &worker{
		s:     s,
		th:    s.sys.NewThread(),
		rec:   obs.NewRecorder(obs.Config{RingSize: s.cfg.RingSize}),
		lat:   obs.NewLabeledHist(endpointLabels()...),
		batch: make([]*request, 0, s.cfg.BatchMax),
	}
	w.th.Stats().Obs = w.rec
	w.run, w.runRO = w.th.Run, w.th.RunReadOnly
	w.body = func(tx tm.Tx) error {
		// Re-executed from the top on every restart; applyOps overwrites
		// results idempotently.
		for _, r := range w.batch {
			w.s.applyOps(tx, r.ops, r.res)
		}
		return nil
	}
	return w
}

// snapshot copies the worker's state, or returns the state Close stored.
func (w *worker) snapshot() *workerSnap {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.final != nil {
		return w.final
	}
	return w.makeSnap(false)
}

// makeSnap copies the worker-owned state (mu held).
func (w *worker) makeSnap(final bool) *workerSnap {
	snap := &workerSnap{
		stats: *w.th.Stats(),
		rec:   w.rec.Clone(),
		lat:   w.lat.Clone(),
		eps:   w.eps,
	}
	snap.stats.Obs = nil // cloned above; the live pointer stays worker-owned
	if final {
		if ring := w.rec.Ring(); ring != nil {
			snap.ring = ring.Events()
		}
	}
	return snap
}

// close waits out the chain holding the worker, stores its final state and
// closes its thread. Close has already closed s.stop, so every chain that
// takes mu afterwards answers ErrClosed without touching the thread.
func (w *worker) close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.final == nil {
		w.final = w.makeSnap(true)
		w.th.Close()
	}
}

// exec admits the chain headed at head (n requests linked by next) and runs
// it on the caller's goroutine, answering each request in its envelope (res,
// err, shed). After Close every request is answered ErrClosed. It returns
// false, having touched no envelope, when admission sheds the whole chain:
// the slow path is saturated while the worker is backlogged, or QueueDepth
// chains are already blocked waiting for it.
//
// The chain fuses in BatchMax slices, each one transaction. A fused batch
// is trivially atomic — it IS one transaction — and a batch of pure reads
// keeps the read-only fast path. Requests whose deadline passed before the
// worker was taken are shed: by then the client has typically given up,
// and executing them anyway is work the admission controller exists to
// avoid. Durable acks wait for their fsync after the worker is released
// (awaitDurable).
func (w *worker) exec(head *request, n int) bool {
	s := w.s
	if s.stopped() {
		closeChain(head)
		return true
	}
	if s.saturated(w) {
		s.admission.saturationShed.Add(uint64(n))
		return false
	}
	if w.waiting.Add(1) > int64(s.cfg.QueueDepth) {
		w.waiting.Add(-1)
		s.admission.queueShed.Add(uint64(n))
		return false
	}
	w.mu.Lock()
	w.waiting.Add(-1)
	if s.stopped() {
		w.mu.Unlock()
		closeChain(head)
		return true
	}
	testBatchDelay()
	now := obs.Now()
	w.syncSeq = 0
	for r := head; r != nil; {
		r = w.execSlice(r, now)
	}
	seq := w.syncSeq
	w.mu.Unlock()
	if seq != 0 {
		w.awaitDurable(head, seq)
	}
	return true
}

// closeChain answers every request of the chain at head with ErrClosed.
func closeChain(head *request) {
	for r := head; r != nil; r = r.next {
		r.err = ErrClosed
	}
}

// awaitDurable waits, with the worker released, until the redo log is
// durable through seq — the frontier of the chain's last durable batch —
// then settles the requests waiting on it (their errors and latency) under a
// short relock. Waiting outside the lock lets the chains that commit on this
// worker meanwhile ride the same group-fsync pass instead of queueing behind
// this one's.
func (w *worker) awaitDurable(head *request, seq uint64) {
	testDurableWait()
	err := w.s.log.WaitDurable(seq)
	done := obs.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	for r := head; r != nil; r = r.next {
		if !r.awaitSync {
			continue
		}
		r.awaitSync = false
		if err != nil {
			w.eps[r.ep].errors++
			r.err = err
		}
		w.lat.Record(int(r.ep), uint64(done-r.enq))
	}
}

// execSlice runs the next BatchMax admitted requests of the chain at head
// and returns the rest of the chain.
func (w *worker) execSlice(head *request, now int64) *request {
	batch := w.batch[:0]
	for ; head != nil && len(batch) < w.s.cfg.BatchMax; head = head.next {
		batch = w.admit(batch, head, now)
	}
	if len(batch) > 0 {
		w.batch = batch
		w.execBatch(batch)
	}
	w.batch = batch[:0]
	return head
}

// execBatch runs one non-empty batch as a single transaction and answers
// every request in it, except that a durable ack still waiting for its
// fsync is marked awaitSync and left to awaitDurable.
func (w *worker) execBatch(batch []*request) {
	readOnly := true
	for _, r := range batch {
		if !r.readOnly {
			readOnly = false
			break
		}
	}
	run := w.run
	if readOnly {
		run = w.runRO
	}
	err := run(w.body)
	wait := false
	if err == nil && !readOnly && w.s.log != nil && w.wantDurable(batch) {
		// Durable ack: hold the replies until the batch's redo records are
		// fsynced. Appended() is read after the commit returned, so it covers
		// this batch's sequence. Unless the commit already synced it
		// (persist.ModeSync), exec waits after releasing the worker.
		if seq := w.s.log.Appended(); w.s.log.Durable() < seq {
			w.syncSeq, wait = seq, true
		} else {
			err = w.s.log.Err()
		}
	}
	fused := len(batch) > 1
	if fused {
		if ring := w.rec.Ring(); ring != nil {
			ring.Record(obs.Event{T: w.s.m.Clock(), Kind: obs.EventFuse, Retry: uint16(min(len(batch), 1<<16-1))})
		}
	}
	done := obs.Now()
	for _, r := range batch {
		w.eps[r.ep].requests++
		if fused {
			w.eps[r.ep].fused++
		}
		if wait {
			r.awaitSync = true // errors and latency settle after the fsync
			continue
		}
		if err != nil {
			w.eps[r.ep].errors++
			r.err = err
		}
		w.lat.Record(int(r.ep), uint64(done-r.enq))
	}
}

// wantDurable reports whether any request in the batch asked for a durable
// ack (or the server forces them). A fused batch is one transaction — one
// redo record — so a single durable request upgrades the whole batch.
func (w *worker) wantDurable(batch []*request) bool {
	if w.s.cfg.DurableAcks {
		return true
	}
	for _, r := range batch {
		if r.durable {
			return true
		}
	}
	return false
}

// admit appends r to the batch, or sheds it if its deadline expired before
// the worker was taken.
func (w *worker) admit(batch []*request, r *request, now int64) []*request {
	if now > r.deadline {
		w.s.admission.deadlineShed.Add(1)
		w.eps[r.ep].requests++
		w.eps[r.ep].shed++
		r.shed = true
		if ring := w.rec.Ring(); ring != nil {
			ring.Record(obs.Event{T: w.s.m.Clock(), Kind: obs.EventShed})
		}
		return batch
	}
	return append(batch, r)
}

// endpointLabels returns the rhserve.v1 endpoint vocabulary for the
// latency LabeledHist.
func endpointLabels() []string {
	labels := make([]string, numEndpoints)
	for e := Endpoint(0); e < numEndpoints; e++ {
		labels[e] = e.String()
	}
	return labels
}

// testBatchDelay is a test seam: the shed and shutdown tests stall a chain
// after it has taken the worker and before it batches, so other chains
// verifiably block behind it. No-op in production.
var testBatchDelay = func() {}

// testDurableWait is a test seam run by a chain after it released its worker
// and before its durable wait, so the group-fsync test can hold every chain
// there until all have committed. No-op in production.
var testDurableWait = func() {}
