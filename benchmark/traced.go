package main

import (
	"path/filepath"
	"strings"

	"rhnorec"
	"rhnorec/internal/htm"
)

// The traced trial runs the workload with one simulated thread or one
// connection, so every count it reports repeats bit for bit for a seed. It
// runs a warm-up block, one untraced block and one traced block of the same
// size; the difference between the last two is the tracing overhead.

// traceFile is where a workload's spans go.
func traceFile(workload, suffix string) string {
	return filepath.Join("benchmark", "out", "trace-"+workload+suffix+".json")
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func runTraced(w *workload, seed uint64, smoke bool) (*trialResult, error) {
	res := newTrialResult(w)
	res.Layer["host.calib_ns"] = hostCalib()
	r, _, err := setup(w, 1, seed)
	if err != nil {
		return nil, err
	}
	ops := w.tracedOps
	if smoke {
		ops = w.smokeOps
	}
	if _, err := r.block(ops, seed, 0, 0); err != nil {
		r.close()
		return nil, err
	}
	r.resetCounts()
	plain, err := measure(r, ops, seed, 0, 1, 0, res)
	if err != nil {
		r.close()
		return nil, err
	}
	t := newTracer()
	var collect func()
	switch r := r.(type) {
	case *tmRun:
		collect = r.startTrace(t, res.Layer)
	case *durRun:
		collect = r.startTrace(t, res.Layer)
	case *kvRun:
		r.startTrace(t)
	}
	traced, err := measure(r, ops, seed, 0, 2, 0, res)
	if err != nil {
		r.close()
		return nil, err
	}
	if collect != nil {
		collect()
	}
	res.Layer["trace.overhead_frac"] = 1 - traced[0].rate/plain[0].rate
	res.Layer["trace.spans"] = float64(len(t.spans))
	if err := r.finish(res); err != nil {
		res.CheckErr = err.Error()
	}
	// The plain trial of the same run reports the two-client value of
	// these; the one-client pass must not overwrite it.
	for k := range res.Layer {
		if k == "htm.conflict_aborts_per_op" || strings.HasPrefix(k, "serve.") || (strings.HasPrefix(k, "persist.") && k != "persist.wait_ns_per_op") {
			delete(res.Layer, k)
		}
	}
	return res, t.write(traceFile(w.name, ""), w.name)
}

// tmExact turns the library's counter deltas over a traced block into the
// exact htm and core metrics.
func tmExact(layer map[string]float64, s0, s1 rhnorec.Stats, d0, d1 htm.DeviceStats, ops, bodies uint64) {
	commits := s1.Commits - s0.Commits
	layer["htm.starts_per_op"] = ratio(d1.Starts-d0.Starts, ops)
	layer["htm.commits_per_op"] = ratio(d1.Commits-d0.Commits, ops)
	layer["htm.capacity_aborts_per_op"] = ratio(d1.CapacityAborts-d0.CapacityAborts, ops)
	layer["core.fast_commit_frac"] = ratio(s1.FastPathCommits-s0.FastPathCommits, commits)
	layer["core.slow_commit_frac"] = ratio(s1.SlowPathCommits-s0.SlowPathCommits, commits)
	layer["core.serial_commit_frac"] = ratio(s1.SerialCommits-s0.SerialCommits, commits)
	layer["core.fallbacks_per_op"] = ratio(s1.Fallbacks-s0.Fallbacks, commits)
	layer["core.slow_restarts_per_slow"] = ratio(s1.SlowPathRestarts-s0.SlowPathRestarts, s1.SlowPathCommits-s0.SlowPathCommits)
	layer["core.prefix_success_frac"] = ratio(s1.PrefixCommits-s0.PrefixCommits, s1.PrefixAttempts-s0.PrefixAttempts)
	layer["core.postfix_success_frac"] = ratio(s1.PostfixCommits-s0.PostfixCommits, s1.PostfixAttempts-s0.PostfixAttempts)
	layer["core.attempts_per_op"] = ratio(bodies, ops)
	layer["core.useful_attempt_frac"] = ratio(commits, d1.Starts-d0.Starts+s1.SlowPathStarts-s0.SlowPathStarts)
}

// startTrace attaches the tracer and the counting shim to the (single)
// worker and returns the function that, after the traced block, turns what
// they and the library's own counters saw into the exact per-layer metrics.
func (r *tmRun) startTrace(t *tracer, layer map[string]float64) func() {
	w := r.workers[0]
	w.tr = &tmTrace{t: t, opName: t.nameID("op"), bodyNam: t.nameID("body")}
	s0, d0 := r.stats(), r.sys.dev.Stats()
	return func() {
		tr := w.tr
		w.tr = nil
		ops := tr.count[tmGet] + tr.count[tmPut] + tr.count[tmDelete] + tr.count[tmAudit]
		tmExact(layer, s0, r.stats(), d0, r.sys.dev.Stats(), ops, tr.bodies)
		layer["rbtree.loads_per_get"] = ratio(tr.loads[tmGet], tr.count[tmGet])
		layer["rbtree.loads_per_put"] = ratio(tr.loads[tmPut], tr.count[tmPut])
		layer["rbtree.stores_per_put"] = ratio(tr.stores[tmPut], tr.count[tmPut])
		layer["rbtree.loads_per_audit"] = ratio(tr.loads[tmAudit], tr.count[tmAudit])
		self, total := t.selfNS("op")
		layer["core.self_ns_per_op"] = float64(self) / float64(ops)
		layer["rbtree.body_ns_per_op"] = float64(total-self) / float64(ops)
	}
}

// startTrace for the durable workload: op -> body (the stores) and
// persist.wait (WaitDurable); core's self time is what is left of op.
func (r *durRun) startTrace(t *tracer, layer map[string]float64) func() {
	w := r.workers[0]
	w.tr = &tmTrace{t: t, opName: t.nameID("op"), bodyNam: t.nameID("body")}
	w.waitName = t.nameID("persist.wait")
	s0, d0, ops0 := r.stats(), r.dev.Stats(), w.gen.requests
	return func() {
		tr := w.tr
		w.tr = nil
		ops := w.gen.requests - ops0
		tmExact(layer, s0, r.stats(), d0, r.dev.Stats(), ops, tr.bodies)
		self, _ := t.selfNS("op")
		_, wait := t.selfNS("persist.wait")
		layer["core.self_ns_per_op"] = float64(self) / float64(ops)
		layer["persist.wait_ns_per_op"] = float64(wait) / float64(ops)
	}
}

// startTrace attaches the tracer to the (single) connection: each batch
// becomes a req span with client.encode, wire.wait and client.decode
// children.
func (r *kvRun) startTrace(t *tracer) {
	c := r.clients[0]
	c.tr = t
	c.nReq, c.nEnc, c.nWait, c.nDec = t.nameID("req"), t.nameID("client.encode"), t.nameID("wire.wait"), t.nameID("client.decode")
}
