package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestValidateDumpFile validates an rhbench -json dump against the schema.
// With RHBENCH_DUMP set it validates that file (this is the CI obs-smoke
// job's check); otherwise it generates a tiny dump in-process so the test
// is self-contained.
func TestValidateDumpFile(t *testing.T) {
	if path := os.Getenv("RHBENCH_DUMP"); path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateDump(data); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return
	}
	var rec JSONRecorder
	_, err := RunSweep(RBTree(RBTreeConfig{Size: 128, MutationRatio: 0.5}), FigureConfig{
		PointConfig: PointConfig{Duration: 10 * time.Millisecond, MemWords: 1 << 16, Obs: true, ObsRing: 64},
		Algos:       StandardAlgos(),
		Threads:     []int{2},
		Progress:    rec.Record,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateDump(buf.Bytes()); err != nil {
		t.Fatalf("generated dump fails its own schema: %v\n%s", err, buf.String())
	}
	// The obs run must actually have produced observability data.
	if !strings.Contains(buf.String(), `"obs"`) {
		t.Fatal("obs-enabled dump carries no obs snapshots")
	}
}

func TestLoadDumpValidates(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema_version":"rhbench.v1","points":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDump(bad); err == nil {
		t.Fatal("LoadDump accepted a wrong schema version")
	}
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(`{"schema_version":"rhbench.v2","points":[{"workload":"w","algo":"a","threads":1,"ops":5,"elapsed_sec":1,"ops_per_sec":5,"violations":0}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := LoadDump(good)
	if err != nil {
		t.Fatalf("LoadDump: %v", err)
	}
	if len(d.Points) != 1 || d.Points[0].OpsPerSec != 5 {
		t.Fatalf("LoadDump returned %+v", d)
	}
}

func TestValidateDumpRejections(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"not-json", `{`, "does not parse"},
		{"v1-array", `[]`, "does not parse"},
		{"wrong-version", `{"schema_version":"rhbench.v1","points":[]}`, "schema_version"},
		{"null-points", `{"schema_version":"rhbench.v2","points":null}`, "null"},
		{"unknown-field", `{"schema_version":"rhbench.v2","points":[],"extra":1}`, "does not parse"},
		{"empty-workload", `{"schema_version":"rhbench.v2","points":[{"workload":"","algo":"a","threads":1,"ops":0,"elapsed_sec":1,"ops_per_sec":0}]}`, "workload"},
		{"zero-threads", `{"schema_version":"rhbench.v2","points":[{"workload":"w","algo":"a","threads":0,"ops":0,"elapsed_sec":1,"ops_per_sec":0}]}`, "threads"},
		{"no-violations", `{"schema_version":"rhbench.v2","points":[{"workload":"w","algo":"a","threads":1,"ops":0,"elapsed_sec":1,"ops_per_sec":0}]}`, "violations"},
		{"segments-without-prefix", `{"schema_version":"rhbench.v2","points":[{"workload":"w","algo":"a","threads":1,"ops":1,"elapsed_sec":1,"ops_per_sec":1,
			"tm":{"commits":1,"read_only_commits":0,"htm_aborts":0,"stm_restarts":0,"fallbacks":1,"segment_reads":9,"abort_rate":0}}]}`, "segment_reads"},
		{"bad-phase", `{"schema_version":"rhbench.v2","points":[{"workload":"w","algo":"a","threads":1,"ops":0,"elapsed_sec":1,"ops_per_sec":0,
			"obs":{"phases":[{"phase":"warp","count":1,"sum_ns":1,"max_ns":1,"p50_ns":1,"p90_ns":1,"p99_ns":1,"buckets":[{"lo_ns":1,"count":1}]}],"aborts":[]}}]}`, "unknown phase"},
		{"bad-cause", `{"schema_version":"rhbench.v2","points":[{"workload":"w","algo":"a","threads":1,"ops":0,"elapsed_sec":1,"ops_per_sec":0,
			"obs":{"phases":[],"aborts":[{"cause":"gremlins","count":1,"retry_mean":1,"retry_max":1}]}}]}`, "unknown abort cause"},
		{"bucket-mismatch", `{"schema_version":"rhbench.v2","points":[{"workload":"w","algo":"a","threads":1,"ops":0,"elapsed_sec":1,"ops_per_sec":0,
			"obs":{"phases":[{"phase":"fast","count":3,"sum_ns":3,"max_ns":1,"p50_ns":1,"p90_ns":1,"p99_ns":1,"buckets":[{"lo_ns":1,"count":1}]}],"aborts":[]}}]}`, "bucket counts"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateDump([]byte(tc.data))
			if err == nil {
				t.Fatal("validated, want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
