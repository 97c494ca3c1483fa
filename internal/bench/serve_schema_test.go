package bench

import (
	"strings"
	"testing"
)

// validServeDump is a schema-conformant rhserve.v1 dump (kept minimal: one
// endpoint row, no obs block).
const validServeDump = `{
  "schema_version": "rhserve.v1",
  "algo": "rh-norec",
  "workers": 4,
  "keys": 65536,
  "uptime_sec": 12.5,
  "endpoints": [
    {
      "endpoint": "get",
      "requests": 100,
      "errors": 1,
      "shed": 2,
      "fused": 40,
      "latency": {
        "count": 97,
        "sum_ns": 970000,
        "max_ns": 50000,
        "p50_ns": 9000,
        "p90_ns": 20000,
        "p99_ns": 40000,
        "p999_ns": 45000
      }
    }
  ],
  "admission": {"queue_shed": 3, "saturation_shed": 0, "deadline_shed": 2},
  "tm": {
    "commits": 90,
    "fast_path_commits": 80,
    "slow_path_commits": 8,
    "serial_commits": 2,
    "fallbacks": 10,
    "htm_aborts": 12,
    "stm_restarts": 3,
    "abort_rate": 0.1176
  },
  "pipeline": [
    {"depth": 1, "drains": 50},
    {"depth": 8, "drains": 6}
  ],
  "snapscan": {"attempts": 20, "hits": 18, "fallbacks": 2}
}`

func TestValidateServeDumpAccepts(t *testing.T) {
	if err := ValidateDump([]byte(validServeDump)); err != nil {
		t.Fatalf("valid rhserve.v1 dump rejected: %v", err)
	}
	d, err := ParseServeDump([]byte(validServeDump))
	if err != nil {
		t.Fatalf("ParseServeDump: %v", err)
	}
	if d.Algo != "rh-norec" || d.Workers != 4 || len(d.Endpoints) != 1 {
		t.Fatalf("parsed dump = %+v", d)
	}
	if d.Endpoints[0].Latency.P99NS != 40000 {
		t.Fatalf("latency block = %+v", d.Endpoints[0].Latency)
	}
}

// mutate applies one string substitution to the valid dump and expects the
// validator to reject the result with a message containing wantErr.
func mutateServe(t *testing.T, old, new, wantErr string) {
	t.Helper()
	doc := strings.Replace(validServeDump, old, new, 1)
	if doc == validServeDump {
		t.Fatalf("mutation %q -> %q did not apply", old, new)
	}
	err := ValidateDump([]byte(doc))
	if err == nil {
		t.Fatalf("mutation %q -> %q accepted, want error containing %q", old, new, wantErr)
	}
	if !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("mutation %q -> %q: error %q does not contain %q", old, new, err, wantErr)
	}
}

func TestValidateServeDumpRejections(t *testing.T) {
	// Unknown fields (struct drift) are rejected.
	mutateServe(t, `"workers": 4`, `"workers": 4, "extra": 1`, "unknown field")
	// Envelope rules.
	mutateServe(t, `"algo": "rh-norec"`, `"algo": ""`, "empty algo")
	mutateServe(t, `"workers": 4`, `"workers": 0`, "workers")
	mutateServe(t, `"keys": 65536`, `"keys": 0`, "keys")
	mutateServe(t, `"uptime_sec": 12.5`, `"uptime_sec": 0`, "uptime_sec")
	// Endpoint vocabulary and row consistency.
	mutateServe(t, `"endpoint": "get"`, `"endpoint": "delete"`, "unknown endpoint")
	mutateServe(t, `"requests": 100`, `"requests": 0`, "zero requests")
	mutateServe(t, `"errors": 1`, `"errors": 99`, "exceed requests")
	mutateServe(t, `"fused": 40`, `"fused": 101`, "exceeds requests")
	mutateServe(t, `"count": 97`, `"count": 101`, "exceeds requests")
	// Deadline sheds are the endpoints' shed counts, summed.
	mutateServe(t, `"deadline_shed": 2`, `"deadline_shed": 3`, "shed sum")
	// Quantile ordering.
	mutateServe(t, `"p99_ns": 40000`, `"p99_ns": 46000`, "not ordered")
	mutateServe(t, `"max_ns": 50000`, `"max_ns": 1000000000`, "max_ns")
	// Pipeline bucket rules: power-of-two depths, strictly ascending,
	// empty buckets omitted.
	mutateServe(t, `{"depth": 8, "drains": 6}`, `{"depth": 6, "drains": 6}`, "power of two")
	mutateServe(t, `{"depth": 8, "drains": 6}`, `{"depth": 1, "drains": 6}`, "ascending")
	mutateServe(t, `{"depth": 8, "drains": 6}`, `{"depth": 8, "drains": 0}`, "zero drains")
	// SnapScan ledger rules: idle ledger omitted, hits+fallbacks==attempts.
	mutateServe(t, `"snapscan": {"attempts": 20, "hits": 18, "fallbacks": 2}`,
		`"snapscan": {"attempts": 0, "hits": 0, "fallbacks": 0}`, "zero attempts")
	mutateServe(t, `"snapscan": {"attempts": 20, "hits": 18, "fallbacks": 2}`,
		`"snapscan": {"attempts": 20, "hits": 18, "fallbacks": 3}`, "!= attempts")
}

func TestValidateServeDumpDuplicateEndpoint(t *testing.T) {
	row := `{
      "endpoint": "get",
      "requests": 1, "errors": 0, "shed": 0, "fused": 0,
      "latency": {"count": 1, "sum_ns": 10, "max_ns": 10,
        "p50_ns": 10, "p90_ns": 10, "p99_ns": 10, "p999_ns": 10}
    }`
	doc := strings.Replace(validServeDump, `"endpoints": [`, `"endpoints": [`+row+",", 1)
	err := ValidateDump([]byte(doc))
	if err == nil || !strings.Contains(err.Error(), "duplicate endpoint") {
		t.Fatalf("duplicate endpoint rows: err = %v", err)
	}
}

// TestValidateDumpDispatch pins the schema_version dispatch: rhbench.v2
// documents keep flowing through the benchmark rules (their error messages
// are asserted by schema_test.go), and rhserve.v1 documents reach the
// service rules.
func TestValidateDumpDispatch(t *testing.T) {
	err := ValidateDump([]byte(`{"schema_version": "rhserve.v1"}`))
	if err == nil || !strings.Contains(err.Error(), "empty algo") {
		t.Fatalf("rhserve.v1 skeleton routed wrong: %v", err)
	}
	err = ValidateDump([]byte(`{"schema_version": "rhbench.v2", "points": []}`))
	if err != nil {
		t.Fatalf("rhbench.v2 skeleton rejected: %v", err)
	}
	err = ValidateDump([]byte(`{"schema_version": "rhserve.v9"}`))
	if err == nil || !strings.Contains(err.Error(), "schema_version") {
		t.Fatalf("unknown version fell through wrong: %v", err)
	}
}
