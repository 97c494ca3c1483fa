package main

import (
	"fmt"
	"sync"
	"time"

	"rhnorec"
	"rhnorec/internal/mem"
	"rhnorec/internal/persist"
	"rhnorec/internal/serve"
)

// tm-durable-put commits durable write transactions the way the KV service
// does underneath — a key is one word on its own cache line, the memory has
// the redo log attached, every commit is acked after WaitDurable — but
// through the library, on persist's in-memory backend. The socket and the
// disk are left out on purpose: over the wire on this host's shared virtio
// disk the same path is fsync-bound and its p99 spread 25-34 % between runs
// of the same code, so that variant is priced in the per-layer tier
// (serve.durable_put_us, persist.wait_durable_us) and this one carries the
// bound.
//
// Every durRestartEvery blocks the system is shut down and booted again
// from its own log, like a server restart: the log is closed, a fresh
// memory recovers it, every key is compared with the threads' models, and
// the run continues on the recovered system. That is the workload's
// correctness check and its recovery measurement, and it keeps the
// in-memory log (80 bytes a commit) from growing without bound.

const durRestartEvery = 10

// durSystem is one boot of the durable system under test.
type durSystem struct {
	m    *rhnorec.Memory
	dev  *rhnorec.HTMDevice
	sys  rhnorec.System
	log  *persist.Log
	base mem.Addr
}

// durBoot builds memory, hardware, TM system and key arena, recovers the
// backend into the arena and attaches the log: serve.New's durable boot,
// minus the workers and the listener.
func durBoot(backend *persist.MemBackend, threads int) (*durSystem, persist.RecoveryStats, error) {
	m := rhnorec.NewMemory(2*(kvKeys+1)*mem.LineWords + 8192)
	dev := rhnorec.NewHTMDevice(m, rhnorec.HTMConfig{})
	dev.SetActiveThreads(threads)
	sys, err := rhnorec.NewRHNOrec(m, rhnorec.Options{Device: dev})
	if err != nil {
		return nil, persist.RecoveryStats{}, err
	}
	s := &durSystem{m: m, dev: dev, sys: sys}
	s.base = m.NewThreadCache().Alloc(kvKeys * mem.LineWords)
	log, stats, err := persist.Open(persist.Options{
		Backend: backend,
		Lo:      s.base,
		Hi:      s.base + kvKeys*mem.LineWords,
	}, m.StorePlain, m.LoadPlain)
	if err != nil {
		return nil, stats, err
	}
	s.log = log
	m.SetPersister(log)
	return s, stats, nil
}

func (s *durSystem) addr(key uint64) mem.Addr { return s.base + mem.Addr(key)*mem.LineWords }

// durRun is the current boot plus the simulated threads and what the
// restarts so far have measured.
type durRun struct {
	backend *persist.MemBackend
	*durSystem
	workers []*durWorker
	blocks  int

	checked, wrong uint64           // keys compared after restarts, and mismatches
	stats0         rhnorec.Stats    // sums over the boots already shut down
	log0           persist.Counters // likewise
	segBytes       uint64
	recoveries     []float64
}

// durWorker is one simulated thread. It reuses the kv generator (the
// durable mix: 80 % PUT, 20 % TXN of 4 PUTs, writes to own keys only), so
// the two durable variants commit the same write sets.
type durWorker struct {
	r   *durRun
	th  rhnorec.Thread
	gen *kvGen
	req serve.ProtoRequest
	exp kvExpect
	put func(rhnorec.Tx) error

	ops, failed uint64
	lat         []float64
	tr          *tmTrace
	waitName    uint8
}

// durSampleEvery: one operation in four is timed.
const durSampleEvery = 4

func newDurRun(threads int) (*durRun, error) {
	r := &durRun{backend: persist.NewMemBackend()}
	var err error
	if r.durSystem, _, err = durBoot(r.backend, threads); err != nil {
		return nil, err
	}
	for t := 0; t < threads; t++ {
		w := &durWorker{r: r, th: r.sys.NewThread(), gen: newKVGen(kvDurableMix, nil, t, threads)}
		w.put = func(tx rhnorec.Tx) error {
			if w.tr != nil {
				tx = w.tr.enter(tx)
				defer w.tr.leave()
			}
			for i := range w.req.Ops {
				tx.Store(r.addr(w.req.Ops[i].Key), w.req.Ops[i].Val)
			}
			return nil
		}
		r.workers = append(r.workers, w)
	}
	return r, nil
}

// step commits one generated write set and waits for its durable ack.
func (w *durWorker) step() {
	w.gen.beginBatch()
	w.gen.next(&w.req, &w.exp)
	timed := w.ops%durSampleEvery == 0
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	tr := w.tr
	if tr != nil {
		tr.attempt = 0
		tr.opSpan = tr.t.open(tr.opName, -1, int64(w.ops))
	}
	err := w.th.Run(w.put)
	var wait int32
	if tr != nil {
		wait = tr.t.open(w.waitName, tr.opSpan, 0)
	}
	if werr := w.r.log.WaitDurable(w.r.log.Appended()); err == nil {
		err = werr
	}
	if tr != nil {
		tr.t.close(wait)
		tr.t.close(tr.opSpan)
	}
	if timed {
		w.lat = append(w.lat, float64(time.Since(t0)))
	}
	w.ops++
	if err != nil {
		w.failed++
	}
}

func (r *durRun) block(ops int, seed uint64, trial, block int) (time.Duration, error) {
	if r.blocks > 0 && r.blocks%durRestartEvery == 0 {
		if err := r.restart(); err != nil {
			return 0, err
		}
	}
	r.blocks++
	per := ops / len(r.workers)
	for i, w := range r.workers {
		w.gen.r = rng{s: streamSeed(seed, trial, block, i)}
	}
	start := time.Now()
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
	return time.Since(start), r.log.Err()
}

// shutdown closes the threads and the log and folds the boot's counters
// into the run's sums.
func (r *durRun) shutdown() error {
	r.stats0 = r.stats()
	for _, w := range r.workers {
		w.th.Close()
	}
	c := r.log.CountersSnapshot()
	r.log0.Appends += c.Appends
	r.log0.Fsyncs += c.Fsyncs
	r.log0.FsyncGroups += c.FsyncGroups
	if err := r.log.Close(); err != nil {
		return err
	}
	names, err := r.backend.List("seg-")
	if err != nil {
		return err
	}
	for _, n := range names {
		data, err := r.backend.ReadFile(n)
		if err != nil {
			return err
		}
		r.segBytes += uint64(len(data))
	}
	return nil
}

// restart shuts the system down, boots a new one from the log, and compares
// every key each thread owns with the thread's model.
func (r *durRun) restart() error {
	if err := r.shutdown(); err != nil {
		return err
	}
	acked := r.log.CountersSnapshot().Appends
	t0 := time.Now()
	again, stats, err := durBoot(r.backend, len(r.workers))
	if err != nil {
		return err
	}
	r.recoveries = append(r.recoveries, time.Since(t0).Seconds())
	if again.base != r.base {
		return fmt.Errorf("recovered system maps keys at %d, the last at %d", again.base, r.base)
	}
	if stats.Commits != acked {
		return fmt.Errorf("recovery replayed %d commits, the log acked %d", stats.Commits, acked)
	}
	r.durSystem = again
	for i, w := range r.workers {
		for k := uint64(i); k < kvKeys; k += uint64(len(r.workers)) {
			r.checked++
			if again.m.LoadPlain(again.addr(k)) != w.gen.model[k] {
				r.wrong++
			}
		}
		w.th = again.sys.NewThread()
	}
	return nil
}

func (r *durRun) totals() (ops, failed uint64, lat []float64) {
	ops, failed = r.checked, r.wrong
	for _, w := range r.workers {
		ops += w.ops
		failed += w.failed
		lat = append(lat, w.lat...)
	}
	return
}

func (r *durRun) resetCounts() {
	r.checked, r.wrong = 0, 0
	for _, w := range r.workers {
		w.ops, w.failed, w.lat = 0, 0, w.lat[:0]
	}
}

// stats sums the library counters of every boot so far.
func (r *durRun) stats() rhnorec.Stats {
	sum := r.stats0
	for _, w := range r.workers {
		addStats(&sum, w.th)
	}
	return sum
}

func (r *durRun) close() {
	for _, w := range r.workers {
		w.th.Close()
	}
	r.log.Close()
}

// finish restarts once more, so everything committed is checked, and
// reports what the restarts measured.
func (r *durRun) finish(res *trialResult) error {
	defer r.close()
	if err := r.restart(); err != nil {
		return err
	}
	res.Attempted += r.checked
	res.Failed += r.wrong
	var written uint64
	for _, w := range r.workers {
		written += w.gen.written
	}
	L := res.Layer
	st := r.stats()
	L["htm.conflict_aborts_per_op"] = ratio(st.HTMConflictAborts, st.Commits)
	L["persist.fsyncs_per_commit"] = ratio(r.log0.Fsyncs, r.log0.Appends)
	L["persist.commits_per_fsync_group"] = ratio(r.log0.Appends, r.log0.FsyncGroups)
	L["persist.log_bytes_per_user_byte"] = ratio(r.segBytes, 16*written)
	L["persist.recovery_s"] = median(r.recoveries)
	return nil
}
