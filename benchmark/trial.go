package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// A trial is a fresh process running one workload: set-up, one discarded
// warm-up block, measured blocks of the frozen size until the trial's share
// of --seconds is used, the correctness checks, and two more set-ups so
// that setup_s is a median of three.

// trialResult is what a trial process prints, as one JSON line, for the
// driver process to aggregate.
type trialResult struct {
	Workload  string  `json:"workload"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	CheckErr  string  `json:"check_err,omitempty"`
	Blocks    int     `json:"blocks"`
	WallS     float64 `json:"wall_s"`
	Samples   int     `json:"samples"`
	// RawOpsPerS is the plain trial's rate before scaling to the reference
	// host speed; the driver prints it next to the scaled one.
	RawOpsPerS float64            `json:"raw_ops_per_s,omitempty"`
	E2E        map[string]float64 `json:"e2e"`
	Layer      map[string]float64 `json:"layer"`
	Notes      []string           `json:"notes,omitempty"`
}

func newTrialResult(w *workload) *trialResult {
	return &trialResult{Workload: w.name, E2E: map[string]float64{}, Layer: map[string]float64{}}
}

// runner is what the two workload families share.
type runner interface {
	block(ops int, seed uint64, trial, block int) (time.Duration, error)
	// totals returns the operations attempted and failed and the latency
	// samples (ns) since the last resetCounts.
	totals() (ops, failed uint64, lat []float64)
	resetCounts()
	// finish runs the post-run correctness checks, adds the layer counters
	// the workload itself produced, and releases everything.
	finish(res *trialResult) error
	close()
}

const setupRepeats = 3

// scratchDir is where a child process may write: the probes' redo logs and
// nothing else. It stays inside the checkout.
func scratchDir(name string) (string, error) {
	dir := filepath.Join(".bench_build", "data", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

var zipfCache = map[float64]*zipf{}

// sharedZipf builds the zipf tables once per process: they are the
// generator's set-up, not the program's, and stay out of setup_s.
func sharedZipf(theta float64) *zipf {
	if z, ok := zipfCache[theta]; ok {
		return z
	}
	z := newZipf(kvKeys, theta)
	zipfCache[theta] = z
	return z
}

// setup sets the workload up once, with n simulated threads or connections,
// and times it.
func setup(w *workload, n int, seed uint64) (runner, float64, error) {
	var z *zipf
	if w.kv != nil && w.kv.mix.zipfTheta > 0 {
		z = sharedZipf(w.kv.mix.zipfTheta)
	}
	var r runner
	var err error
	t0 := time.Now()
	switch {
	case w.tm != nil:
		r, err = newTMRun(*w.tm, n, seed)
	case w.dur:
		r, err = newDurRun(n)
	default:
		spec := *w.kv
		spec.conns = n
		r, err = newKVRun(spec, "", z)
	}
	if err != nil {
		return nil, 0, err
	}
	return r, time.Since(t0).Seconds(), nil
}

// blockStats are one block's numbers, and the host control kernel's reading
// taken right after it.
type blockStats struct{ rate, p50us, p99us, controlNS float64 }

// measure runs blocks until budget is used (exactly one when budget is 0),
// adds their operations to res and returns each block's numbers.
func measure(r runner, ops int, seed uint64, trial, firstBlock int, budget time.Duration, res *trialResult) ([]blockStats, error) {
	var out []blockStats
	var wall time.Duration
	// The budget is wall time, so what a workload does between blocks (the
	// durable workload's restarts) shortens the trial's measurement instead
	// of lengthening the trial.
	for b, start := firstBlock, time.Now(); b == firstBlock || time.Since(start) < budget; b++ {
		d, err := r.block(ops, seed, trial, b)
		if err != nil {
			return nil, err
		}
		wall += d
		done, failed, lat := r.totals()
		r.resetCounts()
		res.Blocks++
		res.Attempted += done
		res.Failed += failed
		res.Samples += len(lat)
		sort.Float64s(lat)
		p50, _ := percentile(lat, 50, 10)
		p99, ok := percentile(lat, 99, 10)
		if !ok && budget > 0 && b == firstBlock {
			res.Notes = append(res.Notes, fmt.Sprintf("workload.op_p99_us rests on fewer than 10 samples beyond it (%d samples a block)", len(lat)))
		}
		out = append(out, blockStats{float64(done) / d.Seconds(), p50 / 1e3, p99 / 1e3, hostControl()})
	}
	res.WallS += wall.Seconds()
	return out, nil
}

func column(b []blockStats, f func(blockStats) float64) []float64 {
	v := make([]float64, len(b))
	for i := range b {
		v[i] = f(b[i])
	}
	return v
}

// runTrial is one plain (untraced) trial.
func runTrial(w *workload, seed uint64, trial int, budget time.Duration, smoke bool) (*trialResult, error) {
	res := newTrialResult(w)
	setupSeed := seed + uint64(trial)
	r, first, err := setup(w, clients, setupSeed)
	if err != nil {
		return nil, err
	}
	setups := []float64{first}
	ops := w.blockOps
	if smoke {
		ops, budget = w.smokeOps, 0
	}
	if _, err := r.block(ops, seed, trial, 0); err != nil { // warm-up, discarded
		r.close()
		return nil, err
	}
	r.resetCounts()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	blocks, err := measure(r, ops, seed, trial, 1, budget, res)
	if err != nil {
		r.close()
		return nil, err
	}
	runtime.ReadMemStats(&after)
	// A trial's value is the median over its blocks. Blocks are short
	// (25-50 ms), because on this class of host — a 2-vCPU VM with
	// neighbours — contention comes in bursts: a pure-ALU kernel runs
	// 25-45 % slower for 100-200 ms at a time. Short blocks let a burst spoil
	// a few of them instead of tilting one long average.
	//
	// The timings are then scaled to the reference host speed (see
	// hostControl): speed = reference reading / this trial's median reading.
	control := median(column(blocks, func(b blockStats) float64 { return b.controlNS }))
	speed := controlRefNS / control
	res.Layer["host.calib_ns"] = control
	res.RawOpsPerS = median(column(blocks, func(b blockStats) float64 { return b.rate }))
	res.E2E["ops_per_s"] = res.RawOpsPerS / speed
	res.E2E["op_p50_us"] = median(column(blocks, func(b blockStats) float64 { return b.p50us })) * speed
	res.Layer["workload.op_p99_us"] = median(column(blocks, func(b blockStats) float64 { return b.p99us })) * speed
	res.Layer["host.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / float64(res.Attempted)
	if err := r.finish(res); err != nil {
		res.CheckErr = err.Error()
	}
	// Peak memory is read before the extra set-ups: whether the runtime
	// reuses (and so touches) a dead instance's arena for the next one
	// depends on garbage-collection timing and made the peak bimodal.
	res.E2E["peak_rss_mb"] = peakRSSMB()
	for i := 1; i < setupRepeats; i++ {
		extra, s, err := setup(w, clients, setupSeed)
		if err != nil {
			return nil, err
		}
		extra.close()
		setups = append(setups, s)
	}
	res.E2E["setup_s"] = median(setups)
	return res, nil
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

var controlSink uint64

// controlRefNS is the control kernel's reading in this host's usual state.
// It only fixes the scale of the reported timings; comparing two commits on
// one host, it cancels.
const controlRefNS = 1.82

// hostControl times a fixed pure-Go kernel that touches no repository code
// and no memory: a multiply-xorshift dependency chain, 0.2 ms of it. It
// moves with the host's clock — this class of VM spends tens of seconds at
// a time in a faster state (1.67 instead of 1.82 ns an iteration) in which
// every workload runs 10-20 % faster — and never with a change to the
// program. A plain trial takes one reading after every block and scales its
// timings by the median reading, which took the spread of eight-trial runs
// from 8.1 % to 3.5 % over a quarter of an hour of tm-rbtree-read; it does
// not remove episodes in which a neighbour contends for the cache, which
// slow the workloads by up to 20 % and this kernel by 5 %.
func hostControl() float64 {
	const iters = 100000
	x := controlSink | 1
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	d := float64(time.Since(t0)) / iters
	controlSink = x
	return d
}

// hostCalib is the median of a few control readings, for child processes
// that do not take one per block.
func hostCalib() float64 {
	r := make([]float64, 25)
	for i := range r {
		r[i] = hostControl()
	}
	return median(r)
}

// ---- the workloads' own finish steps ----

// finish for tm-*: tree invariants and size, then the two-thread abort rate.
func (r *tmRun) finish(res *trialResult) error {
	defer r.close()
	st := r.stats()
	res.Layer["htm.conflict_aborts_per_op"] = ratio(st.HTMConflictAborts, st.Commits)
	return r.check()
}

// finish for kv-*: the server's own ledger. Every reply was checked when it
// arrived, so there is no post-run check.
func (r *kvRun) finish(res *trialResult) error {
	d := r.srv.Snapshot()
	var requests uint64
	for _, ep := range d.Endpoints {
		requests += ep.Requests
	}
	shed := d.Admission.QueueShed + d.Admission.SaturationShed + d.Admission.DeadlineShed
	var drains uint64
	for _, b := range d.Pipeline {
		drains += b.Drains
	}
	L := res.Layer
	hits := uint64(0)
	if d.SnapScan != nil && d.SnapScan.Attempts > 0 {
		hits = d.SnapScan.Hits
		L["serve.snapscan_hit_frac"] = float64(d.SnapScan.Hits) / float64(d.SnapScan.Attempts)
	}
	if d.TM.Commits > 0 {
		L["serve.fused_per_txn"] = float64(requests-hits) / float64(d.TM.Commits)
		L["serve.tm_fast_commit_frac"] = float64(d.TM.FastPathCommits) / float64(d.TM.Commits)
	}
	if drains > 0 {
		L["serve.drain_depth_mean"] = float64(requests+shed) / float64(drains)
	}
	if requests+shed > 0 {
		L["serve.shed_frac"] = float64(shed) / float64(requests+shed)
	}
	r.close()
	return nil
}
