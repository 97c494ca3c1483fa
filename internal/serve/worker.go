package serve

import (
	"sync/atomic"

	"rhnorec/internal/mem"
	"rhnorec/internal/obs"
	"rhnorec/internal/tm"
)

// admissionCounters ledgers the three shed causes (rhserve.v1 "admission").
type admissionCounters struct {
	queueShed      atomic.Uint64 // sticky worker's queue was full at enqueue
	saturationShed atomic.Uint64 // slow path saturated + backlog
	deadlineShed   atomic.Uint64 // deadline expired while queued
}

// endpointCounters is one worker's per-endpoint request ledger. Worker-
// goroutine-owned; published only inside workerSnap copies.
type endpointCounters struct {
	requests uint64
	errors   uint64
	shed     uint64 // deadline sheds (enqueue-time sheds never reach a worker)
	fused    uint64 // requests that shared a fused transaction with others
}

// snapScanCounters ledgers the snapshot-scan fast path (rhserve.v1
// "snapscan"): attempts = eligible requests, hits = answered by a clean
// seqlock snapshot, fallbacks = dirtied every pass and re-ran
// transactionally. hits + fallbacks == attempts always.
type snapScanCounters struct {
	attempts  uint64
	hits      uint64
	fallbacks uint64
}

// workerSnap is one worker's state copied out over the ctl channel (or
// stored at exit): a value copy of the tm counters, clones of the
// observability state, and the endpoint ledger. Everything in it is owned
// by the receiver.
type workerSnap struct {
	stats tm.Stats
	rec   *obs.Recorder
	lat   *obs.LabeledHist
	eps   [numEndpoints]endpointCounters
	snap  snapScanCounters
	ring  []obs.Event // drained only in the final (exit-time) snapshot
}

// worker is one sticky service thread: a queue, a TM thread, and the
// thread-owned metrics. All fields below q/ctl/done are owned by the worker
// goroutine; other goroutines reach them only via ctl-channel snapshots, so
// the hot path takes no locks and the single-goroutine Thread/Stats/Recorder
// contract holds.
type worker struct {
	s    *Server
	id   int
	q    chan *request
	ctl  chan chan *workerSnap
	done chan struct{}

	th tm.Thread
	// run/runRO are th.Run and th.RunReadOnly bound once at loop start: a
	// method value is a fresh closure per evaluation, so binding per batch
	// would heap-allocate on the hot path. body is the batch-executing
	// closure, likewise created once (it reads w.batch at call time).
	run   func(func(tm.Tx) error) error
	runRO func(func(tm.Tx) error) error
	body  func(tm.Tx) error
	rec   *obs.Recorder
	lat   *obs.LabeledHist
	eps   [numEndpoints]endpointCounters
	snap  snapScanCounters
	batch []*request
}

func newWorker(s *Server, id int) *worker {
	return &worker{
		s:     s,
		id:    id,
		q:     make(chan *request, s.cfg.QueueDepth),
		ctl:   make(chan chan *workerSnap),
		done:  make(chan struct{}),
		batch: make([]*request, 0, s.cfg.BatchMax),
	}
}

// backlog reports the worker's current queue length (admission signal).
func (w *worker) backlog() int { return len(w.q) }

// snapshot requests a live state copy from the worker goroutine. It returns
// the stored final snapshot if the worker has exited.
func (w *worker) snapshot() *workerSnap {
	reply := make(chan *workerSnap, 1)
	select {
	case w.ctl <- reply:
		select {
		case snap := <-reply:
			return snap
		case <-w.done:
		}
	case <-w.done:
	}
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	return w.s.finalSnaps[w.id]
}

// makeSnap copies the worker-owned state (worker goroutine only).
func (w *worker) makeSnap(final bool) *workerSnap {
	snap := &workerSnap{
		stats: *w.th.Stats(),
		rec:   w.rec.Clone(),
		lat:   w.lat.Clone(),
		eps:   w.eps,
		snap:  w.snap,
	}
	snap.stats.Obs = nil // cloned above; the live pointer stays worker-owned
	if final {
		if ring := w.rec.Ring(); ring != nil {
			snap.ring = ring.Events()
		}
	}
	return snap
}

// loop is the worker goroutine: dequeue, fuse, execute, reply. The TM
// thread is created here so its whole lifetime stays on one goroutine.
func (w *worker) loop() {
	w.th = w.s.sys.NewThread()
	w.run, w.runRO = w.th.Run, w.th.RunReadOnly
	w.body = func(tx tm.Tx) error {
		// Re-executed from the top on every restart; applyOps overwrites
		// results idempotently.
		for _, r := range w.batch {
			w.s.applyOps(tx, r.ops, r.res)
		}
		return nil
	}
	w.rec = obs.NewRecorder(obs.Config{RingSize: w.s.cfg.RingSize})
	w.th.Stats().Obs = w.rec
	w.lat = obs.NewLabeledHist(endpointLabels()...)
	defer func() {
		snap := w.makeSnap(true)
		w.th.Close()
		w.s.mu.Lock()
		w.s.finalSnaps[w.id] = snap
		w.s.mu.Unlock()
		close(w.done)
	}()
	for {
		select {
		case <-w.s.stop:
			w.drainClosed()
			return
		case reply := <-w.ctl:
			reply <- w.makeSnap(false)
		case r := <-w.q:
			w.serve(r)
		}
	}
}

// drainClosed answers everything still queued with ErrClosed (shutdown),
// walking each queue slot's whole submit chain.
func (w *worker) drainClosed() {
	for {
		select {
		case r := <-w.q:
			for r != nil {
				next := r.next
				r.next = nil
				r.err = ErrClosed
				r.finish()
				r = next
			}
		default:
			return
		}
	}
}

// serve executes the submit chain headed at first plus everything else
// already queued, in batches of up to BatchMax requests fused into one
// transaction each. A fused batch is trivially atomic — it IS one
// transaction — and a batch of pure reads keeps the read-only fast path. A
// chain longer than BatchMax carries its remainder into the next batch
// without going back through the queue.
func (w *worker) serve(first *request) {
	for first != nil {
		first = w.serveBatch(first)
	}
}

// serveBatch fills one batch from the chain at head (then from the queue),
// executes it, and returns the unconsumed chain remainder. Deadline-expired
// requests are shed at dequeue: by the time a backlogged worker reaches
// them the client has typically given up, and executing them anyway is work
// the admission controller exists to avoid.
func (w *worker) serveBatch(head *request) *request {
	testBatchDelay()
	now := obs.Now()
	max := w.s.cfg.BatchMax
	batch := w.batch[:0]
	for {
		for head != nil && len(batch) < max {
			r := head
			head, r.next = r.next, nil
			batch = w.admit(batch, r, now)
		}
		if head != nil || len(batch) >= max {
			break
		}
		select {
		case r := <-w.q:
			head = r
		default:
			head = nil
			goto drained
		}
	}
drained:
	batch = w.snapScans(batch)
	if len(batch) > 0 {
		w.batch = batch
		w.execBatch(batch)
	}
	w.batch = batch[:0]
	return head
}

// execBatch runs one non-empty batch as a single transaction and answers
// every request in it.
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
	if err == nil && !readOnly && w.s.log != nil && w.wantDurable(batch) {
		// Durable ack: hold the replies until the batch's redo records are
		// fsynced. Appended() is read after the commit returned, so it covers
		// this batch's sequence; concurrent workers waiting here ride one
		// group-fsync pass together.
		err = w.s.log.WaitDurable(w.s.log.Appended())
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
		if err != nil {
			w.eps[r.ep].errors++
			r.err = err
		}
		w.lat.Record(int(r.ep), uint64(done-r.enq))
		r.finish()
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

// snapScans peels snapshot-eligible requests — read-only, exactly one scan
// op — off the batch and answers them from a bounded seqlock snapshot
// (mem.SnapshotStrideTry): O(touched stripes) validation instead of
// O(words) instrumented TxnLoads, and no read-set bookkeeping at all. A
// clean pass certifies the copied values coexisted in memory (DESIGN.md
// §14); a request whose passes were all dirtied falls back into the
// transactional batch. Requests with more than one op stay transactional
// even when read-only: their ops must observe ONE consistent cut, which is
// the transaction's job.
func (w *worker) snapScans(batch []*request) []*request {
	if w.s.cfg.SnapScanAttempts < 0 {
		return batch
	}
	kept := batch[:0]
	for _, r := range batch {
		if !r.readOnly || len(r.ops) != 1 || r.ops[0].Kind != OpScan {
			kept = append(kept, r)
			continue
		}
		op := &r.ops[0]
		w.snap.attempts++
		vals := r.res[0].Vals
		if cap(vals) < int(op.Count) {
			vals = make([]uint64, op.Count)
		}
		vals = vals[:op.Count]
		if !w.s.m.SnapshotStrideTry(w.s.addrOf(op.Key), mem.LineWords, vals, w.s.cfg.SnapScanAttempts) {
			w.snap.fallbacks++
			r.res[0].Vals = vals // keep the grown buffer for the txn path
			kept = append(kept, r)
			continue
		}
		w.snap.hits++
		r.res[0] = OpResult{Vals: vals}
		w.eps[EpScan].requests++
		w.lat.Record(int(EpScan), uint64(obs.Now()-r.enq))
		r.finish()
	}
	return kept
}

// admit appends r to the batch, or sheds it if its deadline expired while
// queued.
func (w *worker) admit(batch []*request, r *request, now int64) []*request {
	if now > r.deadline {
		w.s.admission.deadlineShed.Add(1)
		w.eps[r.ep].requests++
		w.eps[r.ep].shed++
		r.shed = true
		if ring := w.rec.Ring(); ring != nil {
			ring.Record(obs.Event{T: w.s.m.Clock(), Kind: obs.EventShed})
		}
		r.finish()
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

// testBatchDelay is a test seam: the shed tests stall the worker between
// dequeue and batching so queued requests verifiably expire. No-op in
// production.
var testBatchDelay = func() {}
