package bench

import (
	"bytes"
	"encoding/json"
	"fmt"

	"rhnorec/internal/obs"
)

// The rhserve.v1 dump schema: the machine-readable form of the KV service's
// /metrics surface (internal/serve, cmd/rhserve), fetched by cmd/rhload
// -dump and bounded by rhgate's serve-slo gate. It lives in this package
// — next to the rhbench.v2 schema — so ValidateDump can check both formats
// and the Go structs stay the single source of truth for docs/METRICS.md.
// The versioning contract is the same as rhbench.v2's: additive optional
// fields do not bump the version; renames and meaning changes do.

// ServeSchemaVersion identifies the rhserve JSON dump format.
const ServeSchemaVersion = "rhserve.v1"

// ServeEndpointNames is the fixed endpoint vocabulary of the service: the
// only labels a ServeEndpoint row may carry, in dump order.
var ServeEndpointNames = []string{"get", "put", "cas", "scan", "txn"}

// ServeDump is the versioned envelope of one rhserve metrics snapshot.
type ServeDump struct {
	// SchemaVersion is always ServeSchemaVersion ("rhserve.v1").
	SchemaVersion string `json:"schema_version"`
	// Algo is the TM algorithm backing the store (tm.System.Name).
	Algo string `json:"algo"`
	// Workers is the size of the sticky worker pool.
	Workers int `json:"workers"`
	// Keys is the number of KV slots mapped onto the word arena.
	Keys int `json:"keys"`
	// UptimeSec is the seconds since the server started.
	UptimeSec float64 `json:"uptime_sec"`
	// Endpoints holds one row per endpoint that served at least one
	// request, in ServeEndpointNames order.
	Endpoints []ServeEndpoint `json:"endpoints"`
	// Admission is the admission controller's shed ledger.
	Admission ServeAdmission `json:"admission"`
	// TM summarizes the merged per-worker transaction counters.
	TM ServeTM `json:"tm"`
	// Pipeline holds one row per non-empty binary-session drain-depth
	// bucket (power-of-two depths, ascending). Optional and additive: dumps
	// from servers that saw no binary traffic omit it.
	Pipeline []ServePipelineBucket `json:"pipeline,omitempty"`
	// SnapScan is the ledger of a snapshot-scan fast path that rhserve no
	// longer has: every scan now runs in its batch's transaction, so rhserve
	// reports each SCAN request as a fallback and none as a hit. Optional
	// and additive: omitted when the server saw no SCAN request.
	SnapScan *ServeSnapScan `json:"snapscan,omitempty"`
	// Persist is the durable persistence plane's ledger (redo log + boot
	// recovery). Optional and additive: omitted when the server runs without
	// a data directory.
	Persist *ServePersist `json:"persist,omitempty"`
	// Obs is the merged engine-level observability snapshot (phase latency
	// histograms, abort taxonomy) of the worker
	// threads — the same block an rhbench.v2 point embeds.
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// ServePipelineBucket counts binary-protocol drains whose frame count
// rounded up to Depth (1, 2, 4, ..., 64; the last bucket absorbs deeper
// drains). One drain = one blocking read plus every complete frame already
// buffered, answered through a single flush.
type ServePipelineBucket struct {
	Depth  int    `json:"depth"`
	Drains uint64 `json:"drains"`
}

// ServeSnapScan ledgers the snapshot-scan fast path older rhserve builds
// had: single-scan read-only requests answered from a seqlock-validated
// memory snapshot instead of an instrumented transaction. Current rhserve
// has no such path and reports Hits 0, Fallbacks == Attempts == its SCAN
// requests. Hits + Fallbacks == Attempts.
type ServeSnapScan struct {
	// Attempts counts eligible requests (read-only, exactly one scan op).
	Attempts uint64 `json:"attempts"`
	// Hits counts attempts answered by a clean snapshot pass.
	Hits uint64 `json:"hits"`
	// Fallbacks counts attempts whose passes were all dirtied by concurrent
	// writers and re-ran on the transactional path.
	Fallbacks uint64 `json:"fallbacks"`
}

// ServePersist ledgers the durable persistence plane: the redo log's append
// and group-fsync counters plus what boot-time crash recovery replayed. The
// counter names mirror obs.PersistKind's schema strings (docs/METRICS.md).
type ServePersist struct {
	// LogAppends counts logged commits ("log-append").
	LogAppends uint64 `json:"log_appends"`
	// LogRecords counts redo records ("log-record"): one per logged
	// commit, so it equals LogAppends; ValidateDump holds it >= LogAppends.
	LogRecords uint64 `json:"log_records"`
	// FsyncGroups counts group-fsync passes ("fsync-group"); every durable
	// ack waiting at a pass rode it, so FsyncGroups <= LogAppends under load
	// is the batching win.
	FsyncGroups uint64 `json:"fsync_groups"`
	// Fsyncs counts log-file fsyncs ("fsync"): one per group pass.
	Fsyncs uint64 `json:"fsyncs"`
	// Appended and Durable are the log's sequence frontiers: the last
	// sequence buffered and the last sequence known on stable storage.
	Appended uint64 `json:"appended"`
	Durable  uint64 `json:"durable"`
	// RecoveryReplayed counts commits boot recovery replayed
	// ("recovery-replayed").
	RecoveryReplayed uint64 `json:"recovery_replayed"`
	// RecoveryDropped counts parsed records discarded beyond the consistent
	// cut ("recovery-dropped").
	RecoveryDropped uint64 `json:"recovery_dropped"`
	// TornTails counts log files whose tail bytes were torn or corrupt
	// ("torn-tail").
	TornTails uint64 `json:"torn_tails"`
}

// ServeEndpoint is one endpoint's request ledger and latency distribution.
type ServeEndpoint struct {
	// Endpoint is the endpoint name (one of ServeEndpointNames).
	Endpoint string `json:"endpoint"`
	// Requests counts requests that reached a worker for this endpoint
	// (admission sheds never reach a worker and are ledgered separately).
	Requests uint64 `json:"requests"`
	// Errors counts requests answered with an application error.
	Errors uint64 `json:"errors"`
	// Shed counts requests shed when their chain took the worker, because
	// their deadline expired while they waited for it — the Retry-After
	// path, not a failure.
	Shed uint64 `json:"shed"`
	// Fused counts requests executed inside a fused batch of two or more.
	Fused uint64 `json:"fused"`
	// Latency is the request service-latency distribution, measured from
	// the request's arrival to its answer, so it includes any wait for the
	// worker.
	Latency obs.LatencySummary `json:"latency"`
}

// ServeAdmission is the admission controller's ledger.
type ServeAdmission struct {
	// QueueShed counts requests shed because their chain found the
	// configured QueueDepth of chains already blocked waiting for the
	// sticky worker.
	QueueShed uint64 `json:"queue_shed"`
	// SaturationShed counts requests shed because the slow path was
	// saturated (the engine's slow-path occupancy at or above the service's
	// threshold) while half QueueDepth chains were waiting for the worker.
	SaturationShed uint64 `json:"saturation_shed"`
	// DeadlineShed counts requests shed when their chain took the worker,
	// because their deadline expired while they waited (also counted per
	// endpoint in Endpoints.Shed).
	DeadlineShed uint64 `json:"deadline_shed"`
}

// ServeTM summarizes the merged worker-thread TM counters: the service-level
// view of the engine's tm.Stats.
type ServeTM struct {
	// Commits counts committed transactions across all workers.
	Commits uint64 `json:"commits"`
	// FastPathCommits/SlowPathCommits/SerialCommits split Commits by path.
	FastPathCommits uint64 `json:"fast_path_commits"`
	SlowPathCommits uint64 `json:"slow_path_commits"`
	SerialCommits   uint64 `json:"serial_commits"`
	// Fallbacks counts fast-path surrenders to the slow path.
	Fallbacks uint64 `json:"fallbacks"`
	// HTMAborts is the total hardware aborts of any kind.
	HTMAborts uint64 `json:"htm_aborts"`
	// STMRestarts counts software-path restarts.
	STMRestarts uint64 `json:"stm_restarts"`
	// AbortRate is HTMAborts/(HTMAborts+Commits): the fraction of hardware
	// attempts that aborted (0 when idle).
	AbortRate float64 `json:"abort_rate"`
}

// ParseServeDump decodes and schema-validates an rhserve.v1 dump.
func ParseServeDump(data []byte) (*ServeDump, error) {
	if err := validateServeDump(data); err != nil {
		return nil, err
	}
	var d ServeDump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// validateServeDump checks an rhserve.v1 dump: the versioned envelope, the
// endpoint vocabulary and row consistency, ordered latency quantiles, and
// the embedded obs snapshot (validated by the rhbench.v2 rules). Unknown
// fields are rejected so the Go structs and the emitted schema cannot
// diverge.
func validateServeDump(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var d ServeDump
	if err := dec.Decode(&d); err != nil {
		return fmt.Errorf("dump does not parse as %s: %w", ServeSchemaVersion, err)
	}
	if d.SchemaVersion != ServeSchemaVersion {
		return fmt.Errorf("schema_version = %q, want %q", d.SchemaVersion, ServeSchemaVersion)
	}
	if d.Algo == "" {
		return fmt.Errorf("empty algo")
	}
	if d.Workers < 1 {
		return fmt.Errorf("workers = %d, want >= 1", d.Workers)
	}
	if d.Keys < 1 {
		return fmt.Errorf("keys = %d, want >= 1", d.Keys)
	}
	if d.UptimeSec <= 0 {
		return fmt.Errorf("uptime_sec = %g, want > 0", d.UptimeSec)
	}
	if d.Endpoints == nil {
		return fmt.Errorf("endpoints is null, want an array")
	}
	known := make(map[string]bool, len(ServeEndpointNames))
	for _, n := range ServeEndpointNames {
		known[n] = true
	}
	seen := map[string]bool{}
	for _, ep := range d.Endpoints {
		if !known[ep.Endpoint] {
			return fmt.Errorf("unknown endpoint %q", ep.Endpoint)
		}
		if seen[ep.Endpoint] {
			return fmt.Errorf("duplicate endpoint %q", ep.Endpoint)
		}
		seen[ep.Endpoint] = true
		if err := validateServeEndpoint(&ep); err != nil {
			return fmt.Errorf("endpoint %s: %w", ep.Endpoint, err)
		}
	}
	prevDepth := 0
	for _, b := range d.Pipeline {
		if b.Depth < 1 || b.Depth&(b.Depth-1) != 0 {
			return fmt.Errorf("pipeline depth %d is not a positive power of two", b.Depth)
		}
		if b.Depth <= prevDepth {
			return fmt.Errorf("pipeline depths not strictly ascending (%d after %d)", b.Depth, prevDepth)
		}
		prevDepth = b.Depth
		if b.Drains == 0 {
			return fmt.Errorf("pipeline depth %d has zero drains (empty buckets are omitted)", b.Depth)
		}
	}
	if sc := d.SnapScan; sc != nil {
		if sc.Attempts == 0 {
			return fmt.Errorf("snapscan with zero attempts (idle ledger is omitted)")
		}
		if sc.Hits+sc.Fallbacks != sc.Attempts {
			return fmt.Errorf("snapscan hits %d + fallbacks %d != attempts %d",
				sc.Hits, sc.Fallbacks, sc.Attempts)
		}
	}
	if p := d.Persist; p != nil {
		if p.LogRecords < p.LogAppends {
			return fmt.Errorf("persist log_records %d < log_appends %d", p.LogRecords, p.LogAppends)
		}
		if p.Fsyncs < p.FsyncGroups {
			return fmt.Errorf("persist fsyncs %d < fsync_groups %d", p.Fsyncs, p.FsyncGroups)
		}
		if p.Durable > p.Appended {
			return fmt.Errorf("persist durable %d ahead of appended %d", p.Durable, p.Appended)
		}
	}
	if d.Obs != nil {
		if err := validateSnapshot(d.Obs); err != nil {
			return fmt.Errorf("obs: %w", err)
		}
	}
	return nil
}

func validateServeEndpoint(ep *ServeEndpoint) error {
	if ep.Requests == 0 {
		return fmt.Errorf("zero requests (idle endpoints are omitted)")
	}
	if ep.Errors+ep.Shed > ep.Requests {
		return fmt.Errorf("errors %d + shed %d exceed requests %d", ep.Errors, ep.Shed, ep.Requests)
	}
	if ep.Fused > ep.Requests {
		return fmt.Errorf("fused %d exceeds requests %d", ep.Fused, ep.Requests)
	}
	l := &ep.Latency
	if l.Count > ep.Requests {
		return fmt.Errorf("latency count %d exceeds requests %d", l.Count, ep.Requests)
	}
	if l.MaxNS > l.SumNS {
		return fmt.Errorf("max_ns %d > sum_ns %d", l.MaxNS, l.SumNS)
	}
	if l.P50NS > l.P90NS || l.P90NS > l.P99NS || l.P99NS > l.P999NS || l.P999NS > l.MaxNS {
		return fmt.Errorf("quantiles not ordered (p50=%d p90=%d p99=%d p999=%d max=%d)",
			l.P50NS, l.P90NS, l.P99NS, l.P999NS, l.MaxNS)
	}
	return nil
}
