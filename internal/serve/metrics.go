package serve

import (
	"fmt"
	"io"
	"sort"
	"time"

	"rhnorec/internal/bench"
	"rhnorec/internal/obs"
	"rhnorec/internal/tm"
)

// Snapshot assembles the rhserve.v1 metrics dump from worker snapshots:
// each worker's state is copied under its mutex, between chains (or the
// snapshot Close stored), so no counter is read while a chain updates it.
func (s *Server) Snapshot() *bench.ServeDump {
	var (
		agg   tm.Stats
		eps   [numEndpoints]endpointCounters
		snaps = make([]*workerSnap, 0, len(s.workers))
	)
	for _, w := range s.workers {
		if snap := w.snapshot(); snap != nil {
			snaps = append(snaps, snap)
		}
	}
	for _, snap := range snaps {
		agg.Add(&snap.stats)
		for e := range eps {
			eps[e].requests += snap.eps[e].requests
			eps[e].errors += snap.eps[e].errors
			eps[e].shed += snap.eps[e].shed
			eps[e].fused += snap.eps[e].fused
			eps[e].lat.Merge(&snap.eps[e].lat)
		}
	}
	d := &bench.ServeDump{
		SchemaVersion: bench.ServeSchemaVersion,
		Algo:          s.sys.Name(),
		Workers:       len(s.workers),
		Keys:          s.cfg.Keys,
		UptimeSec:     time.Since(s.start).Seconds(),
		Endpoints:     []bench.ServeEndpoint{},
		Admission: bench.ServeAdmission{
			QueueShed:      s.admission.queueShed.Load(),
			SaturationShed: s.admission.saturationShed.Load(),
		},
		TM: bench.ServeTM{
			Commits:         agg.Commits,
			FastPathCommits: agg.FastPathCommits,
			SlowPathCommits: agg.SlowPathCommits,
			SerialCommits:   agg.SerialCommits,
			Fallbacks:       agg.Fallbacks,
			HTMAborts:       agg.HTMAborts(),
			STMRestarts:     agg.STMRestarts,
		},
	}
	if total := d.TM.HTMAborts + d.TM.Commits; total > 0 {
		d.TM.AbortRate = float64(d.TM.HTMAborts) / float64(total)
	}
	for i := 0; i < pipelineBucketCount; i++ {
		if c := s.pipeline.buckets[i].Load(); c > 0 {
			d.Pipeline = append(d.Pipeline, bench.ServePipelineBucket{Depth: 1 << i, Drains: c})
		}
	}
	if s.log != nil {
		c := s.log.CountersSnapshot()
		d.Persist = &bench.ServePersist{
			LogAppends:       c.Appends,
			LogRecords:       c.Records,
			FsyncGroups:      c.FsyncGroups,
			Fsyncs:           c.Fsyncs,
			Appended:         c.Appended,
			Durable:          c.Durable,
			RecoveryReplayed: c.Recovery.Commits,
			TornTails:        uint64(c.Recovery.TornTails),
		}
	}
	for e := Endpoint(0); e < numEndpoints; e++ {
		c := eps[e]
		if c.requests == 0 {
			continue
		}
		d.Admission.DeadlineShed += c.shed
		d.Endpoints = append(d.Endpoints, bench.ServeEndpoint{
			Endpoint: e.String(),
			Requests: c.requests,
			Errors:   c.errors,
			Shed:     c.shed,
			Fused:    c.fused,
			Latency:  c.lat.Summary(),
		})
	}
	// No scan is answered from a snapshot: every one reads in its batch's
	// transaction. The block still reports that, as zero hits, because the
	// benchmark's serve.snapscan_hit_frac cell reads it; it goes once that
	// cell does.
	if n := eps[EpScan].requests; n > 0 {
		d.SnapScan = &bench.ServeSnapScan{Attempts: n, Fallbacks: n}
	}
	if snap := agg.Obs.Snapshot(); snap != nil && (len(snap.Phases) > 0 || len(snap.Aborts) > 0) {
		d.Obs = snap
	}
	return d
}

// writeMetricsText renders the human-readable /metrics page (the JSON form
// is the same data via Snapshot + json.Marshal; see http.go).
func writeMetricsText(w io.Writer, d *bench.ServeDump) {
	fmt.Fprintf(w, "rhserve algo=%s workers=%d keys=%d uptime=%.1fs\n\n",
		d.Algo, d.Workers, d.Keys, d.UptimeSec)
	fmt.Fprintf(w, "%-8s %10s %8s %6s %8s %10s %10s %10s %10s\n",
		"endpoint", "requests", "errors", "shed", "fused", "p50", "p99", "p999", "max")
	for _, ep := range d.Endpoints {
		l := ep.Latency
		fmt.Fprintf(w, "%-8s %10d %8d %6d %8d %10s %10s %10s %10s\n",
			ep.Endpoint, ep.Requests, ep.Errors, ep.Shed, ep.Fused,
			fmtNS(l.P50NS), fmtNS(l.P99NS), fmtNS(l.P999NS), fmtNS(l.MaxNS))
	}
	fmt.Fprintf(w, "\nadmission: queue_shed=%d saturation_shed=%d deadline_shed=%d\n",
		d.Admission.QueueShed, d.Admission.SaturationShed, d.Admission.DeadlineShed)
	t := d.TM
	fmt.Fprintf(w, "tm: commits=%d fast=%d slow=%d serial=%d fallbacks=%d htm_aborts=%d stm_restarts=%d abort_rate=%.4f\n",
		t.Commits, t.FastPathCommits, t.SlowPathCommits, t.SerialCommits,
		t.Fallbacks, t.HTMAborts, t.STMRestarts, t.AbortRate)
	if len(d.Pipeline) > 0 {
		fmt.Fprintf(w, "pipeline:")
		for _, b := range d.Pipeline {
			fmt.Fprintf(w, " d%d=%d", b.Depth, b.Drains)
		}
		fmt.Fprintln(w)
	}
	if p := d.Persist; p != nil {
		fmt.Fprintf(w, "persist: log-append=%d log-record=%d fsync-group=%d fsync=%d appended=%d durable=%d\n",
			p.LogAppends, p.LogRecords, p.FsyncGroups, p.Fsyncs, p.Appended, p.Durable)
		fmt.Fprintf(w, "persist-recovery: recovery-replayed=%d torn-tail=%d\n",
			p.RecoveryReplayed, p.TornTails)
	}
	if d.Obs == nil {
		return
	}
	if len(d.Obs.Aborts) > 0 {
		causes := append([]obs.AbortSnapshot(nil), d.Obs.Aborts...)
		sort.Slice(causes, func(i, j int) bool { return causes[i].Count > causes[j].Count })
		fmt.Fprintf(w, "aborts:")
		for _, c := range causes {
			fmt.Fprintf(w, " %s=%d", c.Cause, c.Count)
		}
		fmt.Fprintln(w)
	}
}

// fmtNS renders a nanosecond duration compactly (µs/ms precision scales
// with magnitude).
func fmtNS(ns uint64) string {
	d := time.Duration(ns)
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", ns)
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.3fs", float64(ns)/1e9)
	}
}
