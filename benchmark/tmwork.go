package main

import (
	"fmt"
	"sync"
	"time"

	"rhnorec"
)

// The tm-* workloads call the library the way an application does: one
// red-black tree in transactional memory, simulated threads that each Run
// one transaction per operation.

// tmSpec is what distinguishes one tm workload (or driver probe) from
// another; everything else — tree size, key range, point mix — is shared.
type tmSpec struct {
	algo     string            // "" = rh-norec
	auditPct uint64            // share of operations that are audits
	htm      rhnorec.HTMConfig // zero = the library's Haswell-like default
	policy   rhnorec.RetryPolicy
	// sampleEvery: one Run in this many is timed. 8 keeps the two clock
	// reads under 1 % of a 4 µs read-mostly operation; the capacity mix
	// (40 µs a Run) times every one so a block still has a p99.
	sampleEvery uint64
}

const tmMemWords = 1 << 20

// tmAlgos are the eight drivers behind the root API.
var tmAlgos = map[string]func(*rhnorec.Memory, rhnorec.Options) (rhnorec.System, error){
	"rh-norec":     rhnorec.NewRHNOrec,
	"hy-norec":     rhnorec.NewHybridNOrec,
	"lock-elision": rhnorec.NewLockElision,
	"rh-tl2":       rhnorec.NewRHTL2,
	"phased-tm":    rhnorec.NewPhasedTM,
	"norec": func(m *rhnorec.Memory, _ rhnorec.Options) (rhnorec.System, error) {
		return rhnorec.NewNOrec(m, false), nil
	},
	"tl2": func(m *rhnorec.Memory, _ rhnorec.Options) (rhnorec.System, error) {
		return rhnorec.NewTL2(m, 0), nil
	},
	"serial": func(m *rhnorec.Memory, _ rhnorec.Options) (rhnorec.System, error) {
		return rhnorec.NewSerial(m), nil
	},
}

// tmSystem is the program under test after set-up: memory, simulated
// hardware, TM system and a populated tree.
type tmSystem struct {
	dev  *rhnorec.HTMDevice
	sys  rhnorec.System
	tree rhnorec.RBTree
}

// tmSetup builds the system and inserts the initial keys one transaction
// each. This is what setup_s times for the tm-* workloads.
func tmSetup(spec tmSpec, threads int, keys []uint64) (*tmSystem, error) {
	algo := spec.algo
	if algo == "" {
		algo = "rh-norec"
	}
	m := rhnorec.NewMemory(tmMemWords)
	dev := rhnorec.NewHTMDevice(m, spec.htm)
	dev.SetActiveThreads(threads)
	sys, err := tmAlgos[algo](m, rhnorec.Options{Device: dev, Policy: spec.policy})
	if err != nil {
		return nil, err
	}
	s := &tmSystem{dev: dev, sys: sys}
	th := sys.NewThread()
	defer th.Close()
	th.Run(func(tx rhnorec.Tx) error {
		s.tree = rhnorec.NewRBTree(tx)
		return nil
	})
	for _, k := range keys {
		k := k
		th.Run(func(tx rhnorec.Tx) error {
			s.tree.Put(tx, k, tmInitialValue(k))
			return nil
		})
	}
	return s, nil
}

// countTx is the benchmark's counting shim around the transactional view:
// it prices rbtree in loads and stores per operation without touching the
// library.
type countTx struct {
	tx            rhnorec.Tx
	loads, stores uint64
}

func (c *countTx) Load(a rhnorec.Addr) uint64 { c.loads++; return c.tx.Load(a) }
func (c *countTx) Store(a rhnorec.Addr, v uint64) {
	c.stores++
	c.tx.Store(a, v)
}
func (c *countTx) Alloc(n int) rhnorec.Addr   { return c.tx.Alloc(n) }
func (c *countTx) Free(a rhnorec.Addr, n int) { c.tx.Free(a, n) }

// tmTrace is the per-worker state of a traced pass.
type tmTrace struct {
	t               *tracer
	opName, bodyNam uint8
	shim            countTx
	opSpan, body    int32
	attempt         int64
	bodies          uint64 // callback invocations
	// loads and stores of the committing invocation, by operation kind
	loads, stores, count [4]uint64
}

// tmWorker is one simulated thread: its library handle, its generator, its
// model of the keys it owns, and callbacks allocated once so the measured
// loop itself allocates nothing.
type tmWorker struct {
	th   rhnorec.Thread
	tree rhnorec.RBTree
	gen  tmGen
	have []bool
	val  []uint64

	op    tmOp
	gotV  uint64
	gotOK bool
	bad   bool
	sum   uint64
	fns   [4]func(rhnorec.Tx) error
	ro    [4]bool
	visit func(k, v uint64) bool

	ops, failed uint64
	sampleEvery uint64
	lat         []float64 // ns, every sampleEvery-th Run
	tr          *tmTrace
}

func newTMWorker(s *tmSystem, thread, threads int, initial []uint64) *tmWorker {
	w := &tmWorker{
		th:   s.sys.NewThread(),
		tree: s.tree,
		gen:  tmGen{thread: uint64(thread), threads: uint64(threads)},
		have: make([]bool, tmKeyRange+tmSummaries),
		val:  make([]uint64, tmKeyRange+tmSummaries),
	}
	for _, k := range initial {
		if k%uint64(threads) == uint64(thread) {
			w.have[k], w.val[k] = true, tmInitialValue(k)
		}
	}
	w.visit = func(k, v uint64) bool {
		if v>>tmValShift != k {
			w.bad = true
		}
		w.sum += v
		return true
	}
	w.ro[tmGet] = true
	w.fns[tmGet] = func(tx rhnorec.Tx) error {
		if w.tr != nil {
			tx = w.tr.enter(tx)
			defer w.tr.leave()
		}
		w.gotV, w.gotOK = w.tree.Get(tx, w.op.key)
		return nil
	}
	w.fns[tmPut] = func(tx rhnorec.Tx) error {
		if w.tr != nil {
			tx = w.tr.enter(tx)
			defer w.tr.leave()
		}
		w.gotV, w.gotOK = w.tree.Put(tx, w.op.key, w.op.val)
		return nil
	}
	w.fns[tmDelete] = func(tx rhnorec.Tx) error {
		if w.tr != nil {
			tx = w.tr.enter(tx)
			defer w.tr.leave()
		}
		w.gotV, w.gotOK = w.tree.Delete(tx, w.op.key)
		return nil
	}
	// An audit reads tmAuditSpan keys' worth of nodes — more lines than the
	// capacity-mix hardware can track — checks every pair it sees, and
	// writes their sum, so it must commit on the mixed slow path.
	w.fns[tmAudit] = func(tx rhnorec.Tx) error {
		if w.tr != nil {
			tx = w.tr.enter(tx)
			defer w.tr.leave()
		}
		w.bad, w.sum = false, 0
		w.tree.Range(tx, w.op.key, w.op.key+tmAuditSpan, w.visit)
		w.tree.Put(tx, w.op.val, w.sum)
		return nil
	}
	return w
}

// enter opens the body span of one callback invocation and hands the
// callback the counting view; leave closes the span, also when the attempt
// unwinds by panic.
func (tr *tmTrace) enter(tx rhnorec.Tx) rhnorec.Tx {
	tr.bodies++
	tr.attempt++
	tr.shim = countTx{tx: tx}
	tr.body = tr.t.open(tr.bodyNam, tr.opSpan, tr.attempt)
	return &tr.shim
}

func (tr *tmTrace) leave() { tr.t.close(tr.body) }

// step runs one operation and checks its result against the model.
func (w *tmWorker) step() {
	w.op = w.gen.next()
	op := w.op
	timed := w.ops%w.sampleEvery == 0
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	if tr := w.tr; tr != nil {
		tr.attempt = 0
		tr.opSpan = tr.t.open(tr.opName, -1, int64(w.ops))
	}
	var err error
	if w.ro[op.kind] {
		err = w.th.RunReadOnly(w.fns[op.kind])
	} else {
		err = w.th.Run(w.fns[op.kind])
	}
	if tr := w.tr; tr != nil {
		tr.t.close(tr.opSpan)
		tr.loads[op.kind] += tr.shim.loads
		tr.stores[op.kind] += tr.shim.stores
		tr.count[op.kind]++
	}
	if timed {
		w.lat = append(w.lat, float64(time.Since(t0)))
	}
	w.ops++
	ok := err == nil
	switch op.kind {
	case tmGet:
		if op.key%w.gen.threads == w.gen.thread {
			ok = ok && w.gotOK == w.have[op.key] && (!w.gotOK || w.gotV == w.val[op.key])
		} else {
			ok = ok && (!w.gotOK || w.gotV>>tmValShift == op.key)
		}
	case tmPut:
		ok = ok && w.gotOK == w.have[op.key] && (!w.gotOK || w.gotV == w.val[op.key])
		w.have[op.key], w.val[op.key] = true, op.val
	case tmDelete:
		ok = ok && w.gotOK == w.have[op.key] && (!w.gotOK || w.gotV == w.val[op.key])
		w.have[op.key] = false
	case tmAudit:
		ok = ok && !w.bad
		w.have[op.val], w.val[op.val] = true, w.sum
	}
	if !ok {
		w.failed++
	}
}

// tmRun is a set-up system plus its workers, ready to run blocks.
type tmRun struct {
	sys     *tmSystem
	workers []*tmWorker
}

func newTMRun(spec tmSpec, threads int, seed uint64) (*tmRun, error) {
	keys := tmInitialKeys(seed)
	s, err := tmSetup(spec, threads, keys)
	if err != nil {
		return nil, err
	}
	r := &tmRun{sys: s}
	for t := 0; t < threads; t++ {
		w := newTMWorker(s, t, threads, keys)
		w.gen.auditPct = spec.auditPct
		w.sampleEvery = spec.sampleEvery
		if w.sampleEvery == 0 {
			w.sampleEvery = 1
		}
		r.workers = append(r.workers, w)
	}
	return r, nil
}

// block runs ops operations, split evenly over the simulated threads, with
// inputs derived from (seed, trial, block), and returns the wall time.
func (r *tmRun) block(ops int, seed uint64, trial, block int) (time.Duration, error) {
	per := ops / len(r.workers)
	for i, w := range r.workers {
		w.gen.r = rng{s: streamSeed(seed, trial, block, i)}
	}
	start := time.Now()
	if len(r.workers) == 1 {
		for i := 0; i < per; i++ {
			r.workers[0].step()
		}
		return time.Since(start), nil
	}
	var wg sync.WaitGroup
	for _, w := range r.workers {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				w.step()
			}
		}()
	}
	wg.Wait()
	return time.Since(start), nil
}

// addStats adds a thread's library counters (not its recorder) to sum.
func addStats(sum *rhnorec.Stats, th rhnorec.Thread) {
	st := *th.Stats()
	st.Obs = nil
	sum.Add(&st)
}

// stats sums the workers' library counters.
func (r *tmRun) stats() rhnorec.Stats {
	var sum rhnorec.Stats
	for _, w := range r.workers {
		addStats(&sum, w.th)
	}
	return sum
}

func (r *tmRun) totals() (ops, failed uint64, lat []float64) {
	for _, w := range r.workers {
		ops += w.ops
		failed += w.failed
		lat = append(lat, w.lat...)
	}
	return
}

// resetCounts forgets the warm-up block's operations and samples.
func (r *tmRun) resetCounts() {
	for _, w := range r.workers {
		w.ops, w.failed, w.lat = 0, 0, w.lat[:0]
	}
}

// check is the post-run correctness check: the tree's red-black and
// ordering invariants hold, and its size equals the number of keys the
// workers' models say are present.
func (r *tmRun) check() error {
	want := uint64(0)
	for _, w := range r.workers {
		for _, h := range w.have {
			if h {
				want++
			}
		}
	}
	th := r.sys.sys.NewThread()
	defer th.Close()
	var inv error
	var size uint64
	th.Run(func(tx rhnorec.Tx) error {
		inv = r.sys.tree.CheckInvariants(tx)
		size = r.sys.tree.Size(tx)
		return nil
	})
	if inv != nil {
		return fmt.Errorf("rbtree invariants: %w", inv)
	}
	if size != want {
		return fmt.Errorf("rbtree size %d, the workers' models hold %d keys", size, want)
	}
	return nil
}

func (r *tmRun) close() {
	for _, w := range r.workers {
		w.th.Close()
	}
}
