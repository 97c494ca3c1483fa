package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"rhnorec/internal/obs"
)

func TestJSONRecorderRoundTrip(t *testing.T) {
	var rec JSONRecorder
	rec.Record(Result{Workload: "rbtree-10%", Algo: "rh-norec", Threads: 8,
		Ops: 1234, Elapsed: 500 * time.Millisecond, Throughput: 2468})
	rec.Record(Result{Workload: "rbtree-10%", Algo: "htm-only", Threads: 1,
		Ops: 10, Elapsed: time.Second, Throughput: 10})
	if rec.Len() != 2 {
		t.Fatalf("Len = %d, want 2", rec.Len())
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got JSONDump
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if got.SchemaVersion != SchemaVersion {
		t.Errorf("schema_version = %q, want %q", got.SchemaVersion, SchemaVersion)
	}
	want := []JSONPoint{
		{Workload: "rbtree-10%", Algo: "rh-norec", Threads: 8, Ops: 1234, ElapsedSec: 0.5, OpsPerSec: 2468},
		{Workload: "rbtree-10%", Algo: "htm-only", Threads: 1, Ops: 10, ElapsedSec: 1, OpsPerSec: 10},
	}
	for i := range want {
		// Every point carries its violation count, zero included.
		if v := got.Points[i].Violations; v == nil || *v != 0 {
			t.Errorf("point %d violations = %v, want a present 0", i, v)
		}
		got.Points[i].Violations = nil
		if got.Points[i] != want[i] {
			t.Errorf("point %d = %+v, want %+v", i, got.Points[i], want[i])
		}
	}
	// The plotting scripts key on these exact names.
	for _, key := range []string{`"schema_version"`, `"points"`, `"workload"`, `"algo"`, `"threads"`, `"ops"`, `"elapsed_sec"`, `"ops_per_sec"`, `"violations"`} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("output missing field %s", key)
		}
	}
	// An obs-less point must not carry an obs key (omitempty contract).
	if strings.Contains(buf.String(), `"obs"`) {
		t.Error("obs key present on a run made without observability")
	}
}

func TestJSONRecorderCarriesObsSnapshot(t *testing.T) {
	r := obs.NewRecorder(obs.Config{})
	r.RecordPhase(obs.PhaseFast, 100)
	r.RecordAbort(obs.CauseConflict, 1, 0)
	var rec JSONRecorder
	rec.Record(Result{Workload: "w", Algo: "a", Threads: 1, Obs: r.Snapshot()})
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got JSONDump
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	snap := got.Points[0].Obs
	if snap == nil {
		t.Fatal("obs snapshot dropped")
	}
	if len(snap.Phases) != 1 || snap.Phases[0].Phase != "fast" || snap.Phases[0].Count != 1 {
		t.Errorf("phases = %+v", snap.Phases)
	}
	if len(snap.Aborts) != 1 || snap.Aborts[0].Cause != "conflict" {
		t.Errorf("aborts = %+v", snap.Aborts)
	}
}

// TestJSONRecorderCarriesSlowPathReads: where the mixed slow path's reads ran
// rides in the tm block, is omitted for a driver that has no prefix, and
// passes the dump's own schema either way.
func TestJSONRecorderCarriesSlowPathReads(t *testing.T) {
	var rec JSONRecorder
	rh := Result{Workload: "w", Algo: "rh-norec", Threads: 1, Ops: 10, Elapsed: time.Second, Throughput: 10}
	rh.Stats.Commits, rh.Stats.PrefixReads, rh.Stats.SegmentReads, rh.Stats.SoftwareReads = 10, 715, 529, 7
	rec.Record(rh)
	stm := Result{Workload: "w", Algo: "norec", Threads: 1, Ops: 10, Elapsed: time.Second, Throughput: 10}
	stm.Stats.Commits = 10
	rec.Record(stm)
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateDump(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	var got JSONDump
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if tmb := got.Points[0].TM; tmb == nil || tmb.PrefixReads != 715 || tmb.SegmentReads != 529 || tmb.SoftwareReads != 7 {
		t.Errorf("rh-norec tm block = %+v, want prefix_reads 715, segment_reads 529, software_reads 7", tmb)
	}
	if n := strings.Count(buf.String(), `_reads"`); n != 3 {
		t.Errorf("%d slow-path read keys in the dump, want 3 (omitted when zero)", n)
	}
}

func TestJSONRecorderEmptyIsVersionedEnvelope(t *testing.T) {
	var rec JSONRecorder
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got JSONDump
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != SchemaVersion {
		t.Errorf("schema_version = %q, want %q", got.SchemaVersion, SchemaVersion)
	}
	if got.Points == nil || len(got.Points) != 0 {
		t.Errorf("points = %#v, want empty non-null array", got.Points)
	}
	if strings.Contains(buf.String(), "null") {
		t.Errorf("empty dump contains null: %s", buf.String())
	}
}

func TestWriteTracesEmptyIsArray(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTraces(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if s := strings.TrimSpace(buf.String()); s != "[]" {
		t.Errorf("empty traces wrote %q, want []", s)
	}
}
