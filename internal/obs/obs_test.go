package obs

import (
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 62, 63}, {^uint64(0), 64},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	for i := 1; i < histBuckets; i++ {
		lo, hi := BucketLow(i), bucketHigh(i)
		if bucketOf(lo) != i || bucketOf(hi) != i {
			t.Errorf("bucket %d bounds [%d,%d] land in buckets %d,%d", i, lo, hi, bucketOf(lo), bucketOf(hi))
		}
	}
}

func TestHistogramRecordAndQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram not zero")
	}
	for v := uint64(1); v <= 1000; v++ {
		h.Record(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 1000*1001/2 {
		t.Fatalf("sum = %d", h.Sum())
	}
	if h.Max() != 1000 {
		t.Fatalf("max = %d", h.Max())
	}
	// p50 of uniform 1..1000 is ~500; the bucket estimate must land within
	// the holding bucket [512,1023] midpoint-capped range — i.e. within a
	// factor of 2 of the true value.
	p50 := h.Quantile(0.5)
	if p50 < 256 || p50 > 1000 {
		t.Errorf("p50 = %d, want within [256,1000]", p50)
	}
	if q := h.Quantile(1.0); q > h.Max() {
		t.Errorf("p100 = %d exceeds max %d", q, h.Max())
	}
	// Buckets must be ascending, non-empty, and sum to count.
	var sum uint64
	prev := -1
	for _, b := range h.Buckets() {
		if int64(b.LowNS) <= int64(prev) {
			t.Errorf("buckets not ascending at %d", b.LowNS)
		}
		prev = int(b.LowNS)
		sum += b.Count
	}
	if sum != h.Count() {
		t.Errorf("bucket counts sum to %d, want %d", sum, h.Count())
	}
	// Summary is the rhserve.v1 latency block: exact count and max, ordered
	// quantile estimates capped by the max.
	l := h.Summary()
	if l.Count != 1000 || l.SumNS != h.Sum() || l.MaxNS != 1000 {
		t.Fatalf("summary = %+v", l)
	}
	if l.P50NS > l.P90NS || l.P90NS > l.P99NS || l.P99NS > l.P999NS || l.P999NS > l.MaxNS {
		t.Fatalf("summary quantiles not ordered: %+v", l)
	}
	if (&Histogram{}).Summary() != (LatencySummary{}) {
		t.Fatal("empty histogram summary not zero")
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Record(10)
	a.Record(100)
	b.Record(1 << 40)
	a.Merge(&b)
	if a.Count() != 3 || a.Max() != 1<<40 || a.Sum() != 110+(1<<40) {
		t.Fatalf("merge: count=%d max=%d sum=%d", a.Count(), a.Max(), a.Sum())
	}
}

func TestRingOverwrite(t *testing.T) {
	r := NewRing(4)
	for i := uint64(1); i <= 10; i++ {
		r.Record(Event{T: i, Kind: EventCommit})
	}
	if r.Len() != 4 || r.Dropped() != 6 {
		t.Fatalf("len=%d dropped=%d", r.Len(), r.Dropped())
	}
	ev := r.Events()
	for i, want := range []uint64{7, 8, 9, 10} {
		if ev[i].T != want {
			t.Errorf("event %d has T=%d, want %d", i, ev[i].T, want)
		}
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	if r.Start() != 0 {
		t.Fatal("nil Start != 0")
	}
	// None of these may panic.
	r.RecordSince(PhaseFast, 0)
	r.RecordPhase(PhaseAttempt, 5)
	r.RecordAbort(CauseConflict, 1, 0)
	r.RecordEvent(EventCommit, PathFast, 0)
	if r.AbortCount(CauseConflict) != 0 || r.Ring() != nil || r.PhaseHist(PhaseFast) != nil {
		t.Fatal("nil recorder returned non-zero state")
	}
	snap := r.Snapshot()
	if snap == nil || len(snap.Phases) != 0 || len(snap.Aborts) != 0 {
		t.Fatal("nil recorder snapshot not empty")
	}
	tr := r.DrainRing(0)
	if len(tr.Events) != 0 {
		t.Fatal("nil recorder drained events")
	}
}

func TestRecorderRecordAndSnapshot(t *testing.T) {
	r := NewRecorder(Config{RingSize: 8})
	s := r.Start()
	if s < 0 {
		t.Fatal("negative start")
	}
	r.RecordSince(PhaseFast, s)
	r.RecordPhase(PhaseAttempt, 1000)
	r.RecordAbort(CauseClockLocked, 3, 42)
	r.RecordAbort(CauseClockLocked, 5, 44)
	r.RecordEvent(EventCommit, PathFast, 46)
	if r.AbortCount(CauseClockLocked) != 2 {
		t.Fatalf("abort count = %d", r.AbortCount(CauseClockLocked))
	}
	snap := r.Snapshot()
	if len(snap.Phases) != 2 {
		t.Fatalf("phases = %+v", snap.Phases)
	}
	var found bool
	for _, a := range snap.Aborts {
		if a.Cause == "clock-locked" {
			found = true
			if a.Count != 2 || a.RetryMean != 4 || a.RetryMax != 5 {
				t.Errorf("abort cell %+v", a)
			}
		}
	}
	if !found {
		t.Fatal("clock-locked cell missing")
	}
	tr := r.DrainRing(7)
	if tr.Thread != 7 || len(tr.Events) != 3 {
		t.Fatalf("trace %+v", tr)
	}
	if tr.Events[0].Kind != "abort" || tr.Events[0].Cause != "clock-locked" || tr.Events[0].Retry != 3 {
		t.Errorf("abort event %+v", tr.Events[0])
	}
	if tr.Events[2].Kind != "commit" || tr.Events[2].Path != "fast" || tr.Events[2].T != 46 {
		t.Errorf("commit event %+v", tr.Events[2])
	}
}

func TestRecorderMerge(t *testing.T) {
	a := NewRecorder(Config{})
	b := NewRecorder(Config{RingSize: 4})
	a.RecordPhase(PhaseSoftware, 100)
	b.RecordPhase(PhaseSoftware, 200)
	b.RecordAbort(CauseCapacity, 1, 0)
	a.Merge(b)
	a.Merge(nil) // no-op
	if h := a.PhaseHist(PhaseSoftware); h.Count() != 2 || h.Sum() != 300 {
		t.Fatalf("merged phase hist count=%d sum=%d", h.Count(), h.Sum())
	}
	if a.AbortCount(CauseCapacity) != 1 {
		t.Fatal("merged abort count missing")
	}
}

func TestRecorderCloneIsolation(t *testing.T) {
	r := NewRecorder(Config{RingSize: 8})
	r.RecordPhase(PhaseFast, 100)
	r.RecordAbort(CauseConflict, 1, 5)

	c := r.Clone()
	if c.Ring() != nil {
		t.Fatal("clone must drop the ring (rings are drained, not merged)")
	}
	r.RecordPhase(PhaseFast, 200)
	if got := c.PhaseHist(PhaseFast).Count(); got != 1 {
		t.Fatalf("clone phase count = %d, want 1 (isolated from later records)", got)
	}
	if got := c.AbortCount(CauseConflict); got != 1 {
		t.Fatalf("clone abort count = %d, want 1", got)
	}
	if (*Recorder)(nil).Clone() != nil {
		t.Fatal("nil Clone must stay nil")
	}

	// Clones feed merges: the snapshot path of a live service.
	agg := NewRecorder(Config{})
	agg.Merge(c)
	if got := agg.AbortCount(CauseConflict); got != 1 {
		t.Fatalf("merged abort count = %d, want 1", got)
	}
}

// TestEnumStringsRoundTrip pins the schema names: every enum value must
// have a distinct, stable, round-trippable name (docs/METRICS.md documents
// them; the bench schema validator rejects anything else).
func TestEnumStringsRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for c := Cause(0); c < NumCauses; c++ {
		n := c.String()
		if n == "" || n == "invalid" || seen[n] {
			t.Errorf("cause %d has bad name %q", c, n)
		}
		seen[n] = true
		if got, ok := CauseByName(n); !ok || got != c {
			t.Errorf("CauseByName(%q) = %v, %v", n, got, ok)
		}
	}
	seen = map[string]bool{}
	for p := Phase(0); p < NumPhases; p++ {
		n := p.String()
		if n == "" || n == "invalid" || seen[n] {
			t.Errorf("phase %d has bad name %q", p, n)
		}
		seen[n] = true
		if got, ok := PhaseByName(n); !ok || got != p {
			t.Errorf("PhaseByName(%q) = %v, %v", n, got, ok)
		}
	}
	if Cause(200).String() != "invalid" || Phase(200).String() != "invalid" {
		t.Error("out-of-range enums must stringify as invalid")
	}
}
